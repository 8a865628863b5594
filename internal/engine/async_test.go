package engine

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ec"
	"repro/internal/sign"
)

// TestAsyncMatchesSync runs every callback form beside its synchronous
// twin: the outcomes agree, each callback runs exactly once, on a
// batch OnBatch has already observed, and what it receives is only
// read during the call.
func TestAsyncMatchesSync(t *testing.T) {
	priv := testKey(t, 40)
	signer := testKey(t, 41)
	var observed atomic.Int64
	e := New(Config{MaxBatch: 8, Workers: 1, BatchWindow: time.Millisecond, SkipWarm: true,
		OnBatch: func(n int) { observed.Add(int64(n)) }})
	defer e.Close()
	rnd := rand.New(rand.NewSource(42))

	const N = 12
	var wg sync.WaitGroup
	var calls atomic.Int64
	type outcome struct {
		secret []byte
		sig    *Signature
		ok     bool
	}
	got := make([]outcome, N)
	digests := make([][]byte, N)
	peers := make([]ec.Affine, N)
	sigs := make([]*Signature, N)
	for i := range digests {
		d := sha256.Sum256([]byte{byte(i)})
		digests[i] = d[:]
		peers[i] = ec.ScalarMultGeneric(big.NewInt(int64(3*i+1)), ec.Gen())
		sig, err := sign.Sign(signer, digests[i], rnd)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			sig.S.Add(sig.S, big.NewInt(1)) // every third signature is invalid
		}
		sigs[i] = sig
	}
	complete := func(i int, err error) bool {
		defer wg.Done()
		calls.Add(1)
		if observed.Load() == 0 {
			t.Errorf("request %d completed before OnBatch saw its batch", i)
		}
		if err != nil {
			t.Errorf("request %d: %v", i, err)
			return false
		}
		return true
	}
	for i := 0; i < N; i++ {
		wg.Add(3)
		if err := e.SharedSecretAsync(priv, peers[i], func(secret []byte, err error) {
			if complete(i, err) {
				got[i].secret = bytes.Clone(secret)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.SignAsync(priv, digests[i], rnd, func(sig *Signature, err error) {
			if complete(i, err) {
				got[i].sig = &Signature{R: new(big.Int).Set(sig.R), S: new(big.Int).Set(sig.S)}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.VerifyAsync(signer.Public, nil, digests[i], sigs[i], sign.HintNone, func(ok bool, err error) {
			if complete(i, err) {
				got[i].ok = ok
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if calls.Load() != 3*N {
		t.Fatalf("%d callbacks ran, want %d", calls.Load(), 3*N)
	}
	for i := 0; i < N; i++ {
		want, err := e.SharedSecret(priv, peers[i])
		if err != nil || !bytes.Equal(got[i].secret, want) {
			t.Fatalf("request %d: async secret differs from SharedSecret (%v)", i, err)
		}
		if !sign.Verify(priv.Public, digests[i], got[i].sig) {
			t.Fatalf("request %d: async signature does not verify", i)
		}
		ok, err := e.Verify(signer.Public, nil, digests[i], sigs[i])
		if err != nil || ok != got[i].ok || ok != (i%3 != 0) {
			t.Fatalf("request %d: async verdict %v, sync %v (%v)", i, got[i].ok, ok, err)
		}
	}
}

// TestAsyncAfterClose pins the lifecycle contract of the callback
// forms: a submission following Close fails synchronously with
// ErrEngineClosed and its callback never runs.
func TestAsyncAfterClose(t *testing.T) {
	priv := testKey(t, 43)
	e := New(Config{MaxBatch: 4, Workers: 1, SkipWarm: true})
	e.Close()
	d := sha256.Sum256([]byte("after close"))
	var ran atomic.Int64
	errs := []error{
		e.SharedSecretAsync(priv, priv.Public, func([]byte, error) { ran.Add(1) }),
		e.SignAsync(priv, d[:], rand.New(rand.NewSource(44)), func(*Signature, error) { ran.Add(1) }),
		e.VerifyAsync(priv.Public, nil, d[:], &Signature{R: big.NewInt(1), S: big.NewInt(1)}, sign.HintNone, func(bool, error) { ran.Add(1) }),
	}
	for i, err := range errs {
		if !errors.Is(err, ErrEngineClosed) {
			t.Fatalf("submission %d after Close: err = %v, want ErrEngineClosed", i, err)
		}
	}
	if ran.Load() != 0 {
		t.Fatalf("%d callbacks ran after a refused submission", ran.Load())
	}
}

// TestAsyncBatchPanic puts a callback-form request in one batch with a
// panicking one: its callback receives ErrBatchPanic, and the worker
// goes on serving. The batch is arranged by holding the single worker
// inside an earlier request's callback until both are queued.
func TestAsyncBatchPanic(t *testing.T) {
	priv := testKey(t, 45)
	e := New(Config{MaxBatch: 8, Workers: 1, SkipWarm: true})
	defer e.Close()

	entered, gate := make(chan struct{}), make(chan struct{})
	if err := e.SharedSecretAsync(priv, priv.Public, func([]byte, error) {
		close(entered)
		<-gate
	}); err != nil {
		t.Fatal(err)
	}
	<-entered
	victim := make(chan error, 1)
	if err := e.SharedSecretAsync(priv, priv.Public, func(_ []byte, err error) { victim <- err }); err != nil {
		t.Fatal(err)
	}
	poisoned := make(chan error, 1)
	go func() {
		_, err := e.ScalarMult(nil, ec.Gen())
		poisoned <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); len(e.reqs) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the poisoned request was never queued")
		}
	}
	close(gate)
	for _, ch := range []chan error{victim, poisoned} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrBatchPanic) {
				t.Fatalf("err = %v, want ErrBatchPanic", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a request of the panicking batch never completed")
		}
	}
	if _, err := e.SharedSecret(priv, priv.Public); err != nil {
		t.Fatalf("worker did not survive the panic: %v", err)
	}
}
