package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf233"
)

// TestScratchScalarMultMatchesReference holds the allocation-free
// scratch path equal to the 32-bit reference pipeline and the generic
// ladder across widths, reusing one Scratch so stale-buffer bugs would
// surface.
func TestScratchScalarMultMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	s := NewScratch()
	g := ec.Gen()
	for i := 0; i < 8; i++ {
		k := new(big.Int).Rand(rnd, ec.Order)
		p := ec.ScalarMultGeneric(k, g) // a random subgroup point
		k2 := new(big.Int).Rand(rnd, ec.Order)
		want := ec.ScalarMultGeneric(k2, p)
		for w := 2; w <= 8; w++ {
			got := s.scalarMultW(k2, p, w)
			if !got.Equal(want) {
				t.Fatalf("w=%d: scratch path diverged from generic ladder", w)
			}
		}
		// The projective variant must agree after manual normalisation.
		ld := s.ScalarMultLD64(k2, p)
		if !ld.Affine().Affine().Equal(want) {
			t.Fatalf("ScalarMultLD64 diverged")
		}
		// Fixed-base comb scratch path.
		if got := s.ScalarBaseMult(k); !got.Equal(ec.ScalarMultGeneric(k, g)) {
			t.Fatalf("scratch ScalarBaseMult diverged")
		}
	}
	// Degenerate inputs.
	if !s.ScalarMult(big.NewInt(0), g).Inf {
		t.Fatal("0·G must be the identity")
	}
	if !s.ScalarMult(big.NewInt(5), ec.Infinity).Inf {
		t.Fatal("5·∞ must be the identity")
	}
	if ng := s.ScalarMultLD64(ec.Order, g); !ng.IsInfinity() {
		t.Fatal("n·G must be the identity")
	}
}

// TestInSubgroupMatchesGeneric pins the halving-trace subgroup test to
// the generic n·Q = ∞ ladder on subgroup members, points outside the
// subgroup (assembled from the order-2 point (0, 1)), and the
// identity.
func TestInSubgroupMatchesGeneric(t *testing.T) {
	rnd := rand.New(rand.NewSource(10))
	g := ec.Gen()
	two := ec.Affine{X: gf233.Zero, Y: gf233.One} // order-2 point
	if !two.OnCurve() {
		t.Fatal("order-2 point must be on the curve")
	}
	pts := []ec.Affine{ec.Infinity, g, two, g.Add(two)}
	for i := 0; i < 6; i++ {
		k := new(big.Int).Rand(rnd, ec.Order)
		p := ec.ScalarMultGeneric(k, g)
		pts = append(pts, p, p.Add(two))
	}
	for i, p := range pts {
		want := ec.ScalarMultGeneric(ec.Order, p).Inf
		if got := InSubgroup(p); got != want {
			t.Fatalf("point %d: InSubgroup = %v, generic says %v", i, got, want)
		}
	}
}

// TestWarmIdempotent just exercises the registry warm-up twice.
func TestWarmIdempotent(t *testing.T) {
	Warm()
	Warm()
	if generatorComb().TableSize() == 0 || genBase().TableSize() == 0 {
		t.Fatal("warm registry has empty tables")
	}
}
