package core

import (
	"math/big"
	"sync"
	"testing"

	"repro/internal/ec"
)

// TestRegistryConcurrentFirstUse hammers a FRESH registry instance
// from 32 goroutines so the very first table build races with reads —
// the case the package-global registry only experiences once per
// process and ordinary tests therefore never cover. Run under -race
// this proves the lock-free read contract: builders serialise on the
// sync.Once, and every reader observes fully built, frozen tables.
func TestRegistryConcurrentFirstUse(t *testing.T) {
	var reg tableRegistry
	g := ec.Gen()
	k := big.NewInt(123456789)
	want := ec.ScalarMultGeneric(k, g)

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := NewScratch()
			for j := 0; j < 4; j++ {
				// Comb first use under concurrency.
				if got := reg.generatorComb().scalarMultLD64(s, k).Affine().Affine(); !got.Equal(want) {
					errs <- "comb result diverged under concurrent first use"
					return
				}
				// wTNAF table first use.
				if got := reg.generatorTNAF().ScalarMult(k); !got.Equal(want) {
					errs <- "tnaf result diverged under concurrent first use"
					return
				}
				// Joint wide-window generator table first use: evaluate
				// u1·G + 0·Q through this registry instance's table via
				// the wide FixedBase path.
				if got := reg.generatorJoint().ScalarMult(k); !got.Equal(want) {
					errs <- "joint table result diverged under concurrent first use"
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
