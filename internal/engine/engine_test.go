package engine

import (
	"bytes"
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/ecdh"
	"repro/internal/sign"
)

// testKey returns a deterministic key pair.
func testKey(t testing.TB, seed int64) *core.PrivateKey {
	t.Helper()
	priv, err := core.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return priv
}

// TestBatchScalarMultMatchesSequential cross-checks the batch kernel
// against core.ScalarMult over mixed inputs, including the identity
// and scalar-zero corners whose Z = 0 exercises the zero-skipping
// batched inversion.
func TestBatchScalarMultMatchesSequential(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	g := ec.Gen()
	var ks []*big.Int
	var ps []ec.Affine
	for i := 0; i < 33; i++ {
		k := new(big.Int).Rand(rnd, ec.Order)
		ks = append(ks, k)
		ps = append(ps, ec.ScalarMultGeneric(big.NewInt(int64(i+1)), g))
	}
	// Corners: zero scalar, point at infinity, multiple of the order.
	ks = append(ks, big.NewInt(0), big.NewInt(7), new(big.Int).Set(ec.Order))
	ps = append(ps, g, ec.Infinity, g)
	got := BatchScalarMult(nil, ks, ps)
	for i := range ks {
		want := core.ScalarMult(ks[i], ps[i])
		if !got[i].Equal(want) {
			t.Fatalf("batch result %d diverged from core.ScalarMult", i)
		}
	}
}

// TestBatchSharedSecretMatchesSequential cross-checks batched ECDH
// (including validation failures) against the fast ecdh.SharedSecret,
// for the fast key and for its ConstTime twin (the Montgomery ladder,
// whose x-line the batch normalises with the shared inversion).
func TestBatchSharedSecretMatchesSequential(t *testing.T) {
	priv := testKey(t, 2)
	hard := *priv
	hard.ConstTime = true
	g := ec.Gen()
	var peers []ec.Affine
	for i := 0; i < 9; i++ {
		peers = append(peers, ec.ScalarMultGeneric(big.NewInt(int64(3*i+1)), g))
	}
	// Invalid peers: identity, off-curve, small-subgroup component.
	offCurve := g
	offCurve.Y = offCurve.X
	small := ec.Affine{Y: ec.B} // (0, 1): order-2 point
	peers = append(peers, ec.Infinity, offCurve, small)
	out := make([]ECDHResult, len(peers))
	for _, k := range []*core.PrivateKey{priv, &hard} {
		BatchSharedSecret(k, peers, out)
		for i, peer := range peers {
			want, wantErr := ecdh.SharedSecret(priv, peer)
			if (out[i].Err == nil) != (wantErr == nil) {
				t.Fatalf("ConstTime %v, peer %d: batch err %v, sequential err %v", k.ConstTime, i, out[i].Err, wantErr)
			}
			if wantErr == nil && !bytes.Equal(out[i].Secret[:], want) {
				t.Fatalf("ConstTime %v, peer %d: secrets diverged", k.ConstTime, i)
			}
		}
	}
}

// TestBatchSignVerifies checks batched signatures verify under the
// reference Verify and respond to digest/key tampering.
func TestBatchSignVerifies(t *testing.T) {
	priv := testKey(t, 3)
	rnd := rand.New(rand.NewSource(4))
	var digests [][]byte
	for i := 0; i < 17; i++ {
		d := sha256.Sum256([]byte{byte(i)})
		digests = append(digests, d[:])
	}
	out := make([]SignResult, len(digests))
	BatchSign(priv, digests, rnd, out)
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("digest %d: %v", i, out[i].Err)
		}
		if !sign.Verify(priv.Public, digests[i], &out[i].Sig) {
			t.Fatalf("digest %d: batch signature does not verify", i)
		}
		if sign.Verify(priv.Public, digests[(i+1)%len(digests)], &out[i].Sig) {
			t.Fatalf("digest %d: signature verified for wrong digest", i)
		}
	}
	// Invalid key surfaces per-request.
	bad := make([]SignResult, 1)
	BatchSign(&core.PrivateKey{D: big.NewInt(0)}, digests[:1], rnd, bad)
	if bad[0].Err == nil {
		t.Fatal("zero key must fail")
	}
}

// TestMixedBatchSignMatchesOneShot runs fast and hardened signing
// requests alternately through one processBatch, each on its own
// nonce stream, and requires every signature to equal one-shot
// sign.Sign's on a copy of that stream: both kinds share the batch's
// one nonce inversion and the one assembly of s.
func TestMixedBatchSignMatchesOneShot(t *testing.T) {
	priv := testKey(t, 12)
	hard := *priv
	hard.ConstTime = true
	s := newBatchScratch()
	const N = 10
	batch := make([]*request, N)
	digests := make([][]byte, N)
	for i := range batch {
		d := sha256.Sum256([]byte{byte(i), 0x6d})
		digests[i] = d[:]
		r := newRequest()
		r.op = opSign
		r.priv = priv
		r.digest = digests[i]
		r.rand = rand.New(rand.NewSource(int64(200 + i)))
		r.ct = i%2 == 1
		batch[i] = r
	}
	processBatch(s, batch)
	for i, r := range batch {
		if r.err != nil {
			t.Fatalf("request %d (hardened=%v): %v", i, r.ct, r.err)
		}
		k := priv
		if i%2 == 1 {
			k = &hard
		}
		want, err := sign.Sign(k, digests[i], rand.New(rand.NewSource(int64(200+i))))
		if err != nil {
			t.Fatal(err)
		}
		if r.r.Cmp(want.R) != 0 || r.s.Cmp(want.S) != 0 {
			t.Fatalf("request %d (hardened=%v): batch signature differs from one-shot Sign", i, r.ct)
		}
	}
}

// TestEngineMixedOps drives an Engine from many goroutines with all
// three op kinds at once and cross-checks every result.
func TestEngineMixedOps(t *testing.T) {
	priv := testKey(t, 5)
	e := New(Config{MaxBatch: 8, Workers: 2})
	defer e.Close()
	g := ec.Gen()

	const G = 16
	errs := make(chan error, G)
	for i := 0; i < G; i++ {
		go func(i int) {
			errs <- func() error {
				rnd := rand.New(rand.NewSource(int64(100 + i)))
				for j := 0; j < 8; j++ {
					switch (i + j) % 3 {
					case 0:
						k := new(big.Int).Rand(rnd, ec.Order)
						got, err := e.ScalarMult(k, g)
						if err != nil {
							return err
						}
						if !got.Equal(core.ScalarMult(k, g)) {
							return errFmt("ScalarMult diverged")
						}
					case 1:
						peer := ec.ScalarMultGeneric(big.NewInt(int64(j+2)), g)
						got, err := e.SharedSecret(priv, peer)
						if err != nil {
							return err
						}
						want, _ := ecdh.SharedSecret(priv, peer)
						if !bytes.Equal(got, want) {
							return errFmt("SharedSecret diverged")
						}
					case 2:
						d := sha256.Sum256([]byte{byte(i), byte(j)})
						sig, err := e.Sign(priv, d[:], rnd)
						if err != nil {
							return err
						}
						if !sign.Verify(priv.Public, d[:], sig) {
							return errFmt("engine signature does not verify")
						}
					}
				}
				return nil
			}()
		}(i)
	}
	for i := 0; i < G; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

type strErr string

func (e strErr) Error() string { return string(e) }

func errFmt(s string) error { return strErr(s) }

// TestScrubClearsSecrets pins the secret-hygiene contract: after a
// sign batch completes and its requests are scrubbed, neither the
// request nor the worker scratch retains the nonce, its word form or
// inverse, the sampling bytes, or an ECDH secret.
func TestScrubClearsSecrets(t *testing.T) {
	priv := testKey(t, 8)
	rnd := rand.New(rand.NewSource(9))
	s := newBatchScratch()
	r := newRequest()
	r.op = opSign
	r.priv = priv
	d := sha256.Sum256([]byte("secret-hygiene"))
	r.digest = d[:]
	r.rand = rnd
	processBatch(s, []*request{r})
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.nonce.Sign() == 0 {
		t.Fatal("expected a live nonce before scrub")
	}
	r.release()
	bits := r.nonce.Bits()
	for _, w := range bits[:cap(bits)] {
		if w != 0 {
			t.Fatal("nonce state survived scrub")
		}
	}
	if s.buf != [32]byte{} {
		t.Fatal("sampling buffer survived the batch")
	}
	if modNResidue(s) {
		t.Fatal("nonce words or their inverses survived the batch")
	}
	// ECDH secrets clear the same way.
	r2 := newRequest()
	r2.op = opECDH
	r2.priv = priv
	r2.point = ec.ScalarMultGeneric(big.NewInt(5), ec.Gen())
	processBatch(s, []*request{r2})
	if r2.err != nil || r2.secret == [SecretSize]byte{} {
		t.Fatal("expected a live ECDH secret before scrub")
	}
	r2.release()
	if r2.secret != [SecretSize]byte{} {
		t.Fatal("ECDH secret survived scrub")
	}
}

// TestEngineSignIntoReusesStorage checks the SignInto reuse contract.
func TestEngineSignIntoReusesStorage(t *testing.T) {
	priv := testKey(t, 6)
	rnd := rand.New(rand.NewSource(7))
	e := New(Config{MaxBatch: 4, Workers: 1})
	defer e.Close()
	var sig Signature
	d := sha256.Sum256([]byte("m1"))
	if err := e.SignInto(&sig, priv, d[:], rnd); err != nil {
		t.Fatal(err)
	}
	r0, s0 := sig.R, sig.S
	d2 := sha256.Sum256([]byte("m2"))
	if err := e.SignInto(&sig, priv, d2[:], rnd); err != nil {
		t.Fatal(err)
	}
	if sig.R != r0 || sig.S != s0 {
		t.Fatal("SignInto must reuse the caller's big.Int storage")
	}
	if !sign.Verify(priv.Public, d2[:], &sig) {
		t.Fatal("reused signature does not verify")
	}
}
