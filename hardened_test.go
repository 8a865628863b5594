package repro

// Differential tests for the hardened (constant-time) signing path:
// hardened and fast must agree byte for byte — same signatures, same
// shared secrets, same public keys — across every field backend, for
// edge-case scalars, one-shot and batched. The constant-time property
// itself is checked elsewhere (the armv6m trace harness and the
// dudect timing test); these tests pin down that hardening never
// changes an output.

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math/big"
	"sync"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf233"
)

// hardenedBackends returns every field backend supported on this
// machine, restoring the ambient backend via t.Cleanup.
func hardenedBackends(t *testing.T) []gf233.Backend {
	t.Helper()
	prev := gf233.CurrentBackend()
	t.Cleanup(func() { gf233.SetBackend(prev) })
	backends := []gf233.Backend{gf233.Backend64}
	if gf233.Supported(gf233.BackendCLMUL) {
		backends = append(backends, gf233.BackendCLMUL)
	}
	return backends
}

// hardenedEdgeScalars are private scalars at the edges of the valid
// range [1, n−1] plus mid-range values with structure the recoders
// find awkward.
func hardenedEdgeScalars() []*big.Int {
	n := ec.Order
	return []*big.Int{
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(n, big.NewInt(1)),
		new(big.Int).Sub(n, big.NewInt(2)),
		new(big.Int).Lsh(big.NewInt(1), 231),
		new(big.Int).SetBit(new(big.Int).SetBit(big.NewInt(0), 28, 1), 56, 1),
	}
}

// ctr is a deterministic byte stream so fast and hardened runs can
// consume identical nonce bytes.
type ctr struct {
	state [32]byte
	buf   []byte
}

func newCtr(seed byte) *ctr {
	c := &ctr{}
	c.state[0] = seed
	return c
}

func (c *ctr) Read(p []byte) (int, error) {
	for i := range p {
		if len(c.buf) == 0 {
			c.state = sha256.Sum256(c.state[:])
			c.buf = c.state[:]
		}
		p[i] = c.buf[0]
		c.buf = c.buf[1:]
	}
	return len(p), nil
}

func keyFromScalar(t *testing.T, d *big.Int) *PrivateKey {
	t.Helper()
	raw := make([]byte, PrivateKeySize)
	d.FillBytes(raw)
	priv, err := NewPrivateKey(raw)
	if err != nil {
		t.Fatalf("NewPrivateKey(%v): %v", d, err)
	}
	return priv
}

// TestHardenedSignMatchesFast is the core of the differential matrix:
// for every backend and every edge-scalar key, the hardened one-shot
// signature (deterministic nonce) must be byte-identical to the fast
// one.
func TestHardenedSignMatchesFast(t *testing.T) {
	digest := sha256.Sum256([]byte("hardened differential"))
	for _, b := range hardenedBackends(t) {
		gf233.SetBackend(b)
		for _, d := range hardenedEdgeScalars() {
			priv := keyFromScalar(t, d)
			hard := priv.Hardened()
			if !hard.IsHardened() || priv.IsHardened() {
				t.Fatal("Hardened() flag plumbing broken")
			}
			fastSig, err := priv.Sign(nil, digest[:], nil)
			if err != nil {
				t.Fatalf("backend %v d=%v: fast sign: %v", b, d, err)
			}
			hardSig, err := hard.Sign(nil, digest[:], nil)
			if err != nil {
				t.Fatalf("backend %v d=%v: hardened sign: %v", b, d, err)
			}
			if !bytes.Equal(fastSig, hardSig) {
				t.Fatalf("backend %v d=%v: hardened signature differs:\nfast %x\nhard %x",
					b, d, fastSig, hardSig)
			}
			// Random-nonce agreement: identical deterministic streams
			// must yield identical signatures on both arms.
			fastSig, err = priv.Sign(newCtr(7), digest[:], nil)
			if err != nil {
				t.Fatalf("fast sign (stream): %v", err)
			}
			hardSig, err = hard.Sign(newCtr(7), digest[:], nil)
			if err != nil {
				t.Fatalf("hardened sign (stream): %v", err)
			}
			if !bytes.Equal(fastSig, hardSig) {
				t.Fatalf("backend %v d=%v: stream signature differs", b, d)
			}
			if !priv.PublicKey().VerifyASN1(digest[:], hardSig) {
				t.Fatalf("backend %v d=%v: hardened signature did not verify", b, d)
			}
		}
	}
}

// TestHardenedECDHMatchesFast pins hardened shared secrets to the
// fast path across backends and edge scalars.
func TestHardenedECDHMatchesFast(t *testing.T) {
	peer, err := GenerateKey(newCtr(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range hardenedBackends(t) {
		gf233.SetBackend(b)
		for _, d := range hardenedEdgeScalars() {
			priv := keyFromScalar(t, d)
			fast, err := priv.SharedSecret(peer.PublicKey())
			if err != nil {
				t.Fatalf("backend %v d=%v: fast ECDH: %v", b, d, err)
			}
			hard, err := priv.Hardened().SharedSecret(peer.PublicKey())
			if err != nil {
				t.Fatalf("backend %v d=%v: hardened ECDH: %v", b, d, err)
			}
			if !bytes.Equal(fast, hard) {
				t.Fatalf("backend %v d=%v: hardened shared secret differs", b, d)
			}
		}
	}
}

// TestHardenedKeygenMatchesFast draws fast and hardened keys from
// identical streams: the scalars and public keys must coincide (the
// hardened comb must derive the same point).
func TestHardenedKeygenMatchesFast(t *testing.T) {
	for seed := byte(0); seed < 8; seed++ {
		fast, err := GenerateKey(newCtr(seed))
		if err != nil {
			t.Fatal(err)
		}
		hard, err := GenerateKeyHardened(newCtr(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !hard.IsHardened() {
			t.Fatal("GenerateKeyHardened returned a non-hardened key")
		}
		if !bytes.Equal(fast.Bytes(), hard.Bytes()) {
			t.Fatalf("seed %d: scalars differ", seed)
		}
		if !bytes.Equal(fast.PublicKey().Bytes(), hard.PublicKey().Bytes()) {
			t.Fatalf("seed %d: public keys differ", seed)
		}
	}
}

// TestHardenedBatchMatchesOneShot runs the same digests through the
// batched kernel (hardened engine and hardened key separately) and
// the fast one-shot signer on identical nonce streams; all four
// combinations must produce identical signature bytes.
func TestHardenedBatchMatchesOneShot(t *testing.T) {
	priv, err := GenerateKey(newCtr(9))
	if err != nil {
		t.Fatal(err)
	}
	const N = 8
	digests := make([][]byte, N)
	for i := range digests {
		d := sha256.Sum256([]byte{byte(i)})
		digests[i] = d[:]
	}
	// Reference: fast one-shot over one shared stream.
	want := make([][]byte, N)
	stream := newCtr(21)
	for i, dg := range digests {
		sig, err := priv.Sign(stream, dg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sig
	}
	check := func(name string, sign func(io.Reader) ([][]byte, error)) {
		got, err := sign(newCtr(21))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: signature %d differs from fast one-shot", name, i)
			}
		}
	}
	// Hardened key through BatchSign.
	check("BatchSign(hardened key)", func(r io.Reader) ([][]byte, error) {
		out := make([]SignResult, N)
		BatchSign(priv.Hardened(), digests, r, out)
		sigs := make([][]byte, N)
		for i := range out {
			if out[i].Err != nil {
				return nil, out[i].Err
			}
			b, err := out[i].Sig.MarshalASN1()
			if err != nil {
				return nil, err
			}
			sigs[i] = b
		}
		return sigs, nil
	})
	// Fast key through a hardened engine (WithConstTime), sequential
	// submits so the stream order is deterministic.
	check("engine WithConstTime", func(r io.Reader) ([][]byte, error) {
		e := NewBatchEngine(WithConstTime(), WithWorkers(1), WithWarmTables(false))
		defer e.Close()
		sigs := make([][]byte, N)
		for i, dg := range digests {
			b, err := e.SignKey(priv, dg, r)
			if err != nil {
				return nil, err
			}
			sigs[i] = b
		}
		return sigs, nil
	})
}

// TestHardenedToggleRace hammers one engine from 32 goroutines that
// alternate hardened and fast keys for signing and ECDH — the -race
// leg of make ci runs this; any shared-state corruption between the
// two evaluator families shows up as a data race or a bad signature.
func TestHardenedToggleRace(t *testing.T) {
	e := NewBatchEngine(WithWarmTables(false))
	defer e.Close()
	priv, err := GenerateKey(newCtr(5))
	if err != nil {
		t.Fatal(err)
	}
	hard := priv.Hardened()
	peer, err := GenerateKey(newCtr(6))
	if err != nil {
		t.Fatal(err)
	}
	wantSecret, err := priv.SharedSecret(peer.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("toggle race"))
	const workers = 32
	iters := 20
	if testing.Short() {
		iters = 5
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := priv
				if (w+i)%2 == 0 {
					key = hard
				}
				sig, err := e.SignKey(key, digest[:], nil)
				if err != nil {
					t.Errorf("worker %d: sign: %v", w, err)
					return
				}
				ok, err := e.VerifyKey(priv.PublicKey(), digest[:], mustParseSig(t, sig))
				if err != nil || !ok {
					t.Errorf("worker %d: verify: ok=%v err=%v", w, ok, err)
					return
				}
				sec, err := e.SharedSecretKey(key, peer.PublicKey())
				if err != nil {
					t.Errorf("worker %d: ecdh: %v", w, err)
					return
				}
				if !bytes.Equal(sec, wantSecret) {
					t.Errorf("worker %d: shared secret differs", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func mustParseSig(t *testing.T, der []byte) *Signature {
	t.Helper()
	sig, err := ParseSignatureDER(der)
	if err != nil {
		t.Fatalf("ParseSignatureDER: %v", err)
	}
	return sig
}
