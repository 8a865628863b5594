package repro

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPublicBatchAPI exercises the repro-level batch surface against
// the one-shot public API.
func TestPublicBatchAPI(t *testing.T) {
	Warm()
	rnd := rand.New(rand.NewSource(80))
	priv, err := GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	var peers []Point
	var peerKeys []*PrivateKey
	for i := 0; i < 5; i++ {
		pk, err := GenerateKey(rnd)
		if err != nil {
			t.Fatal(err)
		}
		peerKeys = append(peerKeys, pk)
		peers = append(peers, pk.PublicKey().Point())
	}

	// Slice kernels.
	out := make([]ECDHResult, len(peers))
	BatchSharedSecret(priv, peers, out)
	for i := range peers {
		if out[i].Err != nil {
			t.Fatalf("peer %d: %v", i, out[i].Err)
		}
		// ECDH symmetry: the peer derives the same raw secret against
		// our public point.
		rev := make([]ECDHResult, 1)
		BatchSharedSecret(peerKeys[i], []Point{priv.PublicKey().Point()}, rev)
		if rev[0].Err != nil || !bytes.Equal(out[i].Secret[:], rev[0].Secret[:]) {
			t.Fatalf("peer %d: ECDH symmetry broken", i)
		}
	}

	ks := []*big.Int{big.NewInt(2), big.NewInt(3), Order()}
	pts := []Point{Generator(), peers[0], Generator()}
	res := BatchScalarMult(ks, pts)
	for i := range ks {
		if !res[i].Equal(ScalarMult(ks[i], pts[i])) {
			t.Fatalf("BatchScalarMult %d diverged from ScalarMult", i)
		}
	}

	digests := make([][]byte, 4)
	for i := range digests {
		d := sha256.Sum256([]byte{byte(i)})
		digests[i] = d[:]
	}
	sigs := make([]SignResult, len(digests))
	BatchSign(priv, digests, rnd, sigs)
	for i := range sigs {
		if sigs[i].Err != nil {
			t.Fatalf("digest %d: %v", i, sigs[i].Err)
		}
		if !priv.PublicKey().Verify(digests[i], &sigs[i].Sig) {
			t.Fatalf("digest %d: batch signature does not verify", i)
		}
	}

	// The engine front end, constructed through the functional options.
	e := NewBatchEngine(WithMaxBatch(8), WithWorkers(1))
	defer e.Close()
	sec, err := e.SharedSecret(priv, peers[0])
	if err != nil || !bytes.Equal(sec, out[0].Secret[:]) {
		t.Fatal("engine SharedSecret diverged from batch kernel")
	}
	// The opaque-key twin derives the same secret.
	secKey, err := e.SharedSecretKey(priv, peerKeys[0].PublicKey())
	if err != nil || !bytes.Equal(secKey, sec) {
		t.Fatal("engine SharedSecretKey diverged from SharedSecret")
	}
	sig, err := e.Sign(priv, digests[0], rnd)
	if err != nil || !priv.PublicKey().Verify(digests[0], sig) {
		t.Fatal("engine signature does not verify")
	}
	// SignKey produces verifiable DER over the same kernel.
	der, err := e.SignKey(priv, digests[0], rnd)
	if err != nil || !VerifyASN1(priv.PublicKey(), digests[0], der) {
		t.Fatal("engine SignKey DER does not verify")
	}
	// Nil rand on the engine = deterministic nonces, byte-identical to
	// the one-shot deterministic signer (same DRBG, same sampler).
	want, err := SignDeterministic(priv, digests[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Sign(priv, digests[0], nil)
	if err != nil || got.R.Cmp(want.R) != 0 || got.S.Cmp(want.S) != 0 {
		t.Fatalf("engine nil-rand signature diverged from SignDeterministic: %v", err)
	}
	detDER, err := e.SignKey(priv, digests[0], nil)
	if err != nil || !VerifyASN1(priv.PublicKey(), digests[0], detDER) {
		t.Fatal("engine nil-rand SignKey DER does not verify")
	}
	// And the slice kernel's nil-rand path.
	detOut := make([]SignResult, len(digests))
	BatchSign(priv, digests, nil, detOut)
	for i := range detOut {
		if detOut[i].Err != nil {
			t.Fatalf("digest %d: %v", i, detOut[i].Err)
		}
		w, _ := SignDeterministic(priv, digests[i])
		if detOut[i].Sig.R.Cmp(w.R) != 0 || detOut[i].Sig.S.Cmp(w.S) != 0 {
			t.Fatalf("digest %d: BatchSign nil-rand diverged from SignDeterministic", i)
		}
	}
	if got, err := e.ScalarMult(big.NewInt(9), Generator()); err != nil || !got.Equal(ScalarBaseMult(big.NewInt(9))) {
		t.Fatalf("engine ScalarMult diverged (err=%v)", err)
	}
	// The batched verifier through both public entry points.
	if ok, err := e.Verify(priv.PublicKey().Point(), digests[0], sig); err != nil || !ok {
		t.Fatalf("engine Verify rejected a valid signature (err=%v)", err)
	}
	pub := priv.PublicKey()
	pub.Precompute()
	if ok, err := e.VerifyKey(pub, digests[0], sig); err != nil || !ok {
		t.Fatalf("engine VerifyKey rejected a valid signature (err=%v)", err)
	}
	if ok, err := e.VerifyKey(pub, digests[1], sig); err != nil || ok {
		t.Fatalf("engine VerifyKey accepted a signature over the wrong digest (err=%v)", err)
	}
}

// TestBatchEngineLifecycle pins the public lifecycle contract: Close
// is idempotent, and every submit path afterwards fails with
// ErrEngineClosed instead of panicking — the drain behaviour
// cmd/eccserve leans on.
func TestBatchEngineLifecycle(t *testing.T) {
	rnd := rand.New(rand.NewSource(81))
	priv, err := GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	d := sha256.Sum256([]byte("lifecycle"))
	e := NewBatchEngine(WithMaxBatch(4), WithWorkers(1), WithWarmTables(false))
	e.Close()
	e.Close() // idempotent
	if _, err := e.ScalarMult(big.NewInt(2), Generator()); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("ScalarMult after Close: %v, want ErrEngineClosed", err)
	}
	if _, err := e.Sign(priv, d[:], rnd); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Sign after Close: %v, want ErrEngineClosed", err)
	}
	if _, err := e.SharedSecretKey(priv, priv.PublicKey()); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("SharedSecretKey after Close: %v, want ErrEngineClosed", err)
	}
	if _, err := e.Verify(priv.PublicKey().Point(), d[:], &Signature{R: big.NewInt(1), S: big.NewInt(1)}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Verify after Close: %v, want ErrEngineClosed", err)
	}
}

// TestBatchEngineOptionClamps checks hostile option values come up as
// a working engine instead of panicking in channel construction.
func TestBatchEngineOptionClamps(t *testing.T) {
	e := NewBatchEngine(
		WithMaxBatch(math.MaxInt),
		WithWorkers(2),
		WithQueueDepth(math.MaxInt),
		WithBatchWindow(-time.Second),
		WithWarmTables(false),
	)
	defer e.Close()
	if got, err := e.ScalarMult(big.NewInt(3), Generator()); err != nil || !got.Equal(ScalarBaseMult(big.NewInt(3))) {
		t.Fatalf("clamped engine diverged (err=%v)", err)
	}
}

// TestBatchEngineWindowObserver drives an engine configured with a
// batch window and an observer through the public options and checks
// requests coalesce.
func TestBatchEngineWindowObserver(t *testing.T) {
	var batches, ops atomic.Int64
	e := NewBatchEngine(
		WithMaxBatch(8),
		WithWorkers(1),
		WithBatchWindow(50*time.Millisecond),
		WithBatchObserver(func(n int) { batches.Add(1); ops.Add(int64(n)) }),
		WithWarmTables(false),
	)
	defer e.Close()
	const G = 6
	var wg sync.WaitGroup
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.ScalarMult(big.NewInt(int64(i+2)), Generator()); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := ops.Load(); got != G {
		t.Fatalf("observer saw %d ops, want %d", got, G)
	}
	if got := batches.Load(); got >= G {
		t.Fatalf("window formed no batches: %d batches for %d ops", got, G)
	}
}
