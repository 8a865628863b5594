package engine

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/ecdh"
	"repro/internal/gf233"
	"repro/internal/sign"
)

// TestConcurrentPublicAPI hits ScalarBaseMult, ECDH and signing from
// 32 goroutines at once — through both the one-shot packages and an
// Engine — while another goroutine cycles the field backend through
// all three values (32, 64, clmul) mid-flight. Under -race this is the
// executable statement of the concurrency contract: the shared
// comb/alpha/δ tables are frozen behind sync.Once, the pooled scratch
// state is per-goroutine, and SetBackend is an atomic whose settings
// are all bit-identical, so results never change, only speed. On
// hardware without CLMUL the third setting degrades to Backend64
// inside SetBackend, which keeps the toggler portable.
func TestConcurrentPublicAPI(t *testing.T) {
	priv, err := core.GenerateKey(rand.New(rand.NewSource(50)))
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{MaxBatch: 16, Workers: 2})
	defer e.Close()
	g := ec.Gen()
	peer := ec.ScalarMultGeneric(big.NewInt(777), g)
	wantSecret, err := ecdh.SharedSecret(priv, peer)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("contract"))
	pinnedSig, err := sign.Sign(priv, digest[:], rand.New(rand.NewSource(51)))
	if err != nil {
		t.Fatal(err)
	}
	verifyTab := core.NewFixedBase(priv.Public, core.WPrecomp)

	stop := make(chan struct{})
	var togglers sync.WaitGroup
	togglers.Add(1)
	go func() {
		// Backend toggling mid-flight must be safe: selection is
		// atomic and both backends compute bit-identical results.
		defer togglers.Done()
		prev := gf233.CurrentBackend()
		defer gf233.SetBackend(prev)
		cycle := []gf233.Backend{gf233.Backend64, gf233.BackendCLMUL}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			gf233.SetBackend(cycle[i%len(cycle)])
		}
	}()

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(500 + i)))
			k := new(big.Int).Rand(rnd, ec.Order)
			wantK := ec.ScalarMultGeneric(k, g)
			for j := 0; j < 6; j++ {
				if got := core.ScalarBaseMult(k); !got.Equal(wantK) {
					errs <- "ScalarBaseMult diverged under concurrency"
					return
				}
				got, err := ecdh.SharedSecret(priv, peer)
				if err != nil || !bytes.Equal(got, wantSecret) {
					errs <- "SharedSecret diverged under concurrency"
					return
				}
				sig, err := sign.Sign(priv, digest[:], rnd)
				if err != nil || !sign.Verify(priv.Public, digest[:], sig) {
					errs <- "Sign/Verify diverged under concurrency"
					return
				}
				// Engine paths share the same frozen tables.
				es, err := e.SharedSecret(priv, peer)
				if err != nil || !bytes.Equal(es, wantSecret) {
					errs <- "engine SharedSecret diverged under concurrency"
					return
				}
				esig, err := e.Sign(priv, digest[:], rnd)
				if err != nil || !sign.Verify(priv.Public, digest[:], esig) {
					errs <- "engine Sign diverged under concurrency"
					return
				}
				// Batched verification rides the same frozen tables —
				// including the joint generator table and a shared
				// per-key precomputed table — and must stay
				// decision-stable while the backend toggles.
				if ok, err := e.Verify(priv.Public, nil, digest[:], pinnedSig); err != nil || !ok {
					errs <- "engine Verify rejected a pinned signature under concurrency"
					return
				}
				if ok, err := e.Verify(priv.Public, verifyTab, digest[:], pinnedSig); err != nil || !ok {
					errs <- "engine Verify (precomputed table) diverged under concurrency"
					return
				}
				if ok, err := e.Verify(priv.Public, nil, digest[:], esigTampered(esig)); err != nil || ok {
					errs <- "engine Verify accepted a tampered signature under concurrency"
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	togglers.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestConcurrentBatchVerifyRecoverable runs the linear-combination
// batch-verification kernel from 32 goroutines over shared read-only
// inputs — a mixed batch with known-corrupted entries — while the
// field backend cycles through all three implementations mid-flight.
// Each goroutine owns its verdict slice and scratch; the verdicts must
// match the one-shot verifier on every entry, every iteration, under
// every backend. Under -race this pins the kernel's per-scratch
// isolation (including the per-scratch ChaCha8 weight source).
func TestConcurrentBatchVerifyRecoverable(t *testing.T) {
	_, pubs, digests, sigs, hints := recoverableFixture(t, 900, 32, 3)
	for _, i := range []int{5, 13, 21} {
		sigs[i] = &Signature{R: sigs[i].R, S: new(big.Int).Xor(sigs[i].S, big.NewInt(256))}
	}
	hints[7] = sign.HintNone // one unhinted entry rides the plain path
	want := make([]bool, len(pubs))
	for i := range pubs {
		want[i] = sign.Verify(pubs[i], digests[i], sigs[i])
	}

	stop := make(chan struct{})
	var togglers sync.WaitGroup
	togglers.Add(1)
	go func() {
		defer togglers.Done()
		prev := gf233.CurrentBackend()
		defer gf233.SetBackend(prev)
		cycle := []gf233.Backend{gf233.Backend64, gf233.BackendCLMUL}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			gf233.SetBackend(cycle[i%len(cycle)])
		}
	}()

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok := make([]bool, len(pubs))
			for j := 0; j < 6; j++ {
				BatchVerifyRecoverable(pubs, nil, digests, sigs, hints, ok)
				for i, got := range ok {
					if got != want[i] {
						errs <- "BatchVerifyRecoverable diverged from the one-shot verifier under concurrency"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	togglers.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSubmitCloseRace races 32 submitting goroutines against Close
// (and a second, concurrent Close): every submission must either
// complete normally or fail with ErrEngineClosed — never panic on a
// closed channel, never deadlock. Under -race this is the executable
// statement of the drain contract a serving front end leans on.
func TestSubmitCloseRace(t *testing.T) {
	priv, err := core.GenerateKey(rand.New(rand.NewSource(70)))
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("drain"))
	g := ec.Gen()
	for round := 0; round < 4; round++ {
		e := New(Config{MaxBatch: 8, Workers: 2, SkipWarm: true})
		const goroutines = 32
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan string, goroutines)
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rnd := rand.New(rand.NewSource(int64(700 + i)))
				<-start
				for j := 0; j < 50; j++ {
					var err error
					switch (i + j) % 3 {
					case 0:
						_, err = e.ScalarMult(big.NewInt(int64(j+1)), g)
					case 1:
						_, err = e.SharedSecret(priv, priv.Public)
					default:
						_, err = e.Sign(priv, digest[:], rnd)
					}
					if err != nil {
						if !errors.Is(err, ErrEngineClosed) {
							errs <- "submit racing Close failed with a non-lifecycle error: " + err.Error()
						}
						return
					}
				}
			}(i)
		}
		var closers sync.WaitGroup
		closers.Add(2)
		for c := 0; c < 2; c++ {
			go func() {
				defer closers.Done()
				<-start
				e.Close()
			}()
		}
		close(start)
		wg.Wait()
		closers.Wait()
		close(errs)
		for msg := range errs {
			t.Fatal(msg)
		}
	}
}

// esigTampered returns a flipped-r copy of sig (fresh big.Ints, so
// concurrent callers never share mutable state).
func esigTampered(sig *sign.Signature) *sign.Signature {
	return &sign.Signature{
		R: new(big.Int).Xor(sig.R, big.NewInt(1)),
		S: new(big.Int).Set(sig.S),
	}
}
