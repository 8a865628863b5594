// Package ec implements the group of points on the binary Koblitz curve
// sect233k1 (NIST K-233), the curve the paper selects in §3.1.
//
// The curve is E: y² + xy = x³ + ax² + b over F_2^233 with a = 0, b = 1.
// The package provides affine arithmetic (the reference formulas),
// López-Dahab projective arithmetic with mixed LD-affine addition — the
// coordinate system used by the paper's point multiplication (§4.2.2) —
// the Frobenius endomorphism τ exploited by TNAF recoding, and
// X9.62-style point encoding with binary-curve compression.
package ec

import (
	"math/big"

	"repro/internal/gf233"
)

// Curve coefficients of sect233k1: y² + xy = x³ + ax² + b.
var (
	// A is the curve coefficient a = 0 (this is what makes the curve a
	// Koblitz curve with µ = -1).
	A = gf233.Zero
	// B is the curve coefficient b = 1.
	B = gf233.One
)

// Order is the prime order n of the base-point subgroup.
var Order, _ = new(big.Int).SetString(
	"8000000000000000000000000000069d5bb915bcd46efb1ad5f173abdf", 16)

// Cofactor is #E(F_2^233)/n.
var Cofactor = big.NewInt(4)

// Mu is the trace-related constant µ = (-1)^(1-a) of the Koblitz curve:
// the Frobenius endomorphism satisfies τ² + 2 = µτ, with µ = -1 for
// a = 0.
const Mu = -1

// Gen returns the standard base point G of sect233k1.
func Gen() Affine {
	return Affine{
		X: gf233.MustHex("0x17232ba853a7e731af129f22ff4149563a419c26bf50a4c9d6eefad6126"),
		Y: gf233.MustHex("0x1db537dece819b7f70f555a67c427a8cd9bf18aeb9b56e0c11056fae6a3"),
	}
}

// Affine is a point in affine coordinates. The zero value is NOT a valid
// point; the point at infinity is represented explicitly by Inf.
type Affine struct {
	X, Y gf233.Elem
	Inf  bool
}

// Infinity is the identity element of the group.
var Infinity = Affine{Inf: true}

// OnCurve reports whether p satisfies the curve equation
// y² + xy = x³ + ax² + b (the identity is on the curve by convention)
// with both coordinates reduced. Mul and Sqr reduce their inputs, so a
// hand-built coordinate with bits above z^232 would pass the equation
// as the point it stands for, while Add and the trace tests of the
// subgroup check read a different value.
func (p Affine) OnCurve() bool {
	if p.Inf {
		return true
	}
	if (p.X[gf233.NumWords-1]|p.Y[gf233.NumWords-1])&^gf233.TopMask != 0 {
		return false
	}
	// One conversion, then the 64-bit field operations the point
	// arithmetic runs on. Left: y² + xy. Right: x³ + ax² + b = x³ + 1
	// since a = 0 and b = 1.
	q := p.To64()
	left := gf233.Add64(gf233.Sqr64(q.Y), gf233.Mul64(q.X, q.Y))
	right := gf233.Add64(gf233.Mul64(gf233.Sqr64(q.X), q.X), gf233.One64)
	return left == right
}

// Equal reports whether p and q are the same point.
func (p Affine) Equal(q Affine) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X == q.X && p.Y == q.Y
}

// Neg returns -p. On binary curves -(x, y) = (x, x+y).
func (p Affine) Neg() Affine {
	if p.Inf {
		return p
	}
	return Affine{X: p.X, Y: gf233.Add(p.X, p.Y)}
}

// Add returns p + q using the affine chord-and-tangent formulas. These
// are the reference formulas the projective arithmetic is verified
// against; they cost one field inversion per operation.
func (p Affine) Add(q Affine) Affine {
	switch {
	case p.Inf:
		return q
	case q.Inf:
		return p
	}
	if p.X == q.X {
		if gf233.Add(p.Y, q.Y) == p.X || (p.Y == q.Y && p.X == gf233.Zero) {
			// q = -p (y2 = x1 + y1), or doubling a point with x = 0.
			return Infinity
		}
		if p.Y == q.Y {
			return p.Double()
		}
		// Same x, different y, not negatives: impossible on the curve.
		return Infinity
	}
	// λ = (y1 + y2) / (x1 + x2)
	lambda, _ := gf233.Div(gf233.Add(p.Y, q.Y), gf233.Add(p.X, q.X))
	// x3 = λ² + λ + x1 + x2 + a
	x3 := gf233.Add(gf233.Add(gf233.Sqr(lambda), lambda), gf233.Add(p.X, q.X))
	// y3 = λ(x1 + x3) + x3 + y1
	y3 := gf233.Add(gf233.Add(gf233.Mul(lambda, gf233.Add(p.X, x3)), x3), p.Y)
	return Affine{X: x3, Y: y3}
}

// Double returns 2p using the affine doubling formulas.
func (p Affine) Double() Affine {
	if p.Inf || p.X == gf233.Zero {
		// The point (0, sqrt(b)) has order 2.
		return Infinity
	}
	// λ = x1 + y1/x1
	d, _ := gf233.Div(p.Y, p.X)
	lambda := gf233.Add(p.X, d)
	// x3 = λ² + λ + a
	x3 := gf233.Add(gf233.Sqr(lambda), lambda)
	// y3 = x1² + (λ+1)·x3
	y3 := gf233.Add(gf233.Sqr(p.X), gf233.Mul(gf233.Add(lambda, gf233.One), x3))
	return Affine{X: x3, Y: y3}
}

// Sub returns p - q.
func (p Affine) Sub(q Affine) Affine { return p.Add(q.Neg()) }

// Frobenius returns τ(p) = (x², y²). On Koblitz curves τ is a cheap
// group endomorphism satisfying τ² + 2 = µτ, the identity TNAF recoding
// exploits.
func (p Affine) Frobenius() Affine {
	if p.Inf {
		return p
	}
	return Affine{X: gf233.Sqr(p.X), Y: gf233.Sqr(p.Y)}
}

// ScalarMultGeneric computes k*p with the plain left-to-right
// double-and-add ladder over the big-integer scalar. It is the ground
// truth every optimised multiplication in the repository is tested
// against (and the shape of what a generic library does without τ).
func ScalarMultGeneric(k *big.Int, p Affine) Affine {
	if k.Sign() < 0 {
		return ScalarMultGeneric(new(big.Int).Neg(k), p.Neg())
	}
	r := Infinity
	for i := k.BitLen() - 1; i >= 0; i-- {
		r = r.Double()
		if k.Bit(i) == 1 {
			r = r.Add(p)
		}
	}
	return r
}
