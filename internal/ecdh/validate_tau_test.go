package ecdh

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf233"
)

// TestValidateTauMatchesValidate holds the fast validator equal to the
// generic-ladder reference on valid peers, off-curve points, the
// identity, the three small-order points and P + each of them. The
// order-2 point (0, 1) and its coset are rejected by the second trace
// of the halving test; the order-4 points (1, 0) and (1, 1) and their
// cosets have Tr(x) = 1 and are rejected by the first.
func TestValidateTauMatchesValidate(t *testing.T) {
	rnd := rand.New(rand.NewSource(33))
	g := ec.Gen()
	torsion := []ec.Affine{
		{X: gf233.Zero, Y: gf233.One}, // order 2
		{X: gf233.One, Y: gf233.Zero}, // order 4
		{X: gf233.One, Y: gf233.One},  // order 4
	}
	offCurve := g
	offCurve.Y = gf233.Add(offCurve.Y, gf233.One)

	pts := []ec.Affine{g, ec.Infinity, offCurve}
	for _, tp := range torsion {
		pts = append(pts, tp, g.Add(tp))
	}
	for i := 0; i < 8; i++ {
		k := new(big.Int).Rand(rnd, ec.Order)
		p := ec.ScalarMultGeneric(k, g)
		pts = append(pts, p)
		for _, tp := range torsion {
			pts = append(pts, p.Add(tp))
		}
	}
	for i, p := range pts {
		want := Validate(p)
		got := ValidateTau(p)
		if (got == nil) != (want == nil) {
			t.Fatalf("point %d: ValidateTau = %v, Validate = %v", i, got, want)
		}
	}
}
