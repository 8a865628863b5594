package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf233"
)

// TestInPrimeSubgroup64MatchesInSubgroup holds both membership tests,
// InSubgroup and the halving-trace ec.InPrimeSubgroup64 underneath it,
// equal to the simple oracle n·P = ∞ on the generic double-and-add
// ladder. Random subgroup points shifted by 0..3 times the order-4
// torsion point (1, 0) sweep all four cosets of the Z₄ cofactor group,
// each with its negation, and the order-2 point (0, 1), the one
// on-curve point with x = 0, goes through both as well.
func TestInPrimeSubgroup64MatchesInSubgroup(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	torsion := ec.Affine{X: gf233.One, Y: gf233.Zero} // order 4
	if !torsion.OnCurve() || !torsion.Double().Double().Inf {
		t.Fatal("(1, 0) is not an order-4 curve point")
	}
	check := func(c, trial int, q ec.Affine) {
		t.Helper()
		want := ec.ScalarMultGeneric(ec.Order, q).Inf
		if want != (c == 0) {
			t.Fatalf("coset %d: generic n·P test says in-subgroup=%v", c, want)
		}
		if got := InSubgroup(q); got != want {
			t.Fatalf("coset %d trial %d: InSubgroup %v, generic %v", c, trial, got, want)
		}
		q64 := q.To64()
		if got := ec.InPrimeSubgroup64(q64.X, q64.Y); got != want {
			t.Fatalf("coset %d trial %d: trace test %v, generic %v", c, trial, got, want)
		}
	}
	check(2, 0, ec.Affine{X: gf233.Zero, Y: gf233.One}) // (0, 1) = 2·(1, 0)
	shift := ec.Infinity
	for c := 0; c < 4; c++ {
		for trial := 0; trial < 25; trial++ {
			k := new(big.Int).Rand(rnd, ec.Order)
			p := ScalarBaseMult(k).Add(shift)
			if p.Inf {
				continue
			}
			check(c, trial, p)
			check(c, trial, p.Neg()) // membership is invariant under negation
		}
		shift = shift.Add(torsion)
	}
}
