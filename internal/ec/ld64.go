package ec

import "repro/internal/gf233"

// 64-bit-native point arithmetic: the same LD/mixed-affine formulas as
// ld.go, expressed directly over gf233.Elem64 so the point-
// multiplication hot loops (internal/core) never pay a per-field-op
// representation conversion. The formulas are ports, not variants —
// the differential tests in ec_test.go hold them bit-identical to the
// 32-bit reference path.

// Affine64 is an affine point over the 64-bit field representation.
// The point at infinity is represented explicitly by Inf.
type Affine64 struct {
	X, Y gf233.Elem64
	Inf  bool
}

// To64 converts an affine point to the 64-bit representation.
func (p Affine) To64() Affine64 {
	if p.Inf {
		return Affine64{Inf: true}
	}
	return Affine64{X: gf233.ToElem64(p.X), Y: gf233.ToElem64(p.Y)}
}

// Affine converts back to the 32-bit reference representation.
func (p Affine64) Affine() Affine {
	if p.Inf {
		return Infinity
	}
	return Affine{X: p.X.Elem(), Y: p.Y.Elem()}
}

// Frobenius returns τ(p) = (x², y²), the affine twin of LD64.FrobeniusN(1).
func (p Affine64) Frobenius() Affine64 {
	if p.Inf {
		return p
	}
	return Affine64{X: gf233.Sqr64(p.X), Y: gf233.Sqr64(p.Y)}
}

// Neg returns -p: on binary curves -(x, y) = (x, x+y).
func (p Affine64) Neg() Affine64 {
	if p.Inf {
		return p
	}
	return Affine64{X: p.X, Y: gf233.Add64(p.X, p.Y)}
}

// LD64 is a López-Dahab projective point over the 64-bit field
// representation: (X, Y, Z) with Z != 0 represents (X/Z, Y/Z²).
type LD64 struct {
	X, Y, Z gf233.Elem64
}

// LD64Infinity is the identity in 64-bit LD coordinates.
var LD64Infinity = LD64{X: gf233.One64}

// IsInfinity reports whether p is the point at infinity.
func (p LD64) IsInfinity() bool { return p.Z == gf233.Zero64 }

// FromAffine64 lifts an affine point to LD coordinates with Z = 1.
func FromAffine64(p Affine64) LD64 {
	if p.Inf {
		return LD64Infinity
	}
	return LD64{X: p.X, Y: p.Y, Z: gf233.One64}
}

// Affine converts p back to affine coordinates, paying one 64-bit
// field inversion: x = X/Z, y = Y/Z².
func (p LD64) Affine() Affine64 {
	if p.IsInfinity() {
		return Affine64{Inf: true}
	}
	zi := gf233.MustInv64(p.Z)
	return Affine64{
		X: gf233.Mul64(p.X, zi),
		Y: gf233.Mul64(p.Y, gf233.Sqr64(zi)),
	}
}

// Double returns 2p — the port of LD.Double (Hankerson et al.
// Alg. 3.25, a = 0, b = 1).
func (p LD64) Double() LD64 {
	if p.IsInfinity() {
		return p
	}
	if p.X == gf233.Zero64 {
		return LD64Infinity
	}
	x2 := gf233.Sqr64(p.X)
	z2 := gf233.Sqr64(p.Z)
	z4 := gf233.Sqr64(z2)
	x4 := gf233.Sqr64(x2)
	y2 := gf233.Sqr64(p.Y)
	z3 := gf233.Mul64(x2, z2)
	x3 := gf233.Add64(x4, z4)
	y3 := gf233.Add64(gf233.Mul64(z4, z3), gf233.Mul64(x3, gf233.Add64(y2, z4)))
	return LD64{X: x3, Y: y3, Z: z3}
}

// AddMixed returns p + q for affine q — the port of LD.AddMixed
// (Hankerson et al. Alg. 3.27), a total group operation.
func (p LD64) AddMixed(q Affine64) LD64 {
	if q.Inf {
		return p
	}
	if p.IsInfinity() {
		return FromAffine64(q)
	}
	z12 := gf233.Sqr64(p.Z)
	a := gf233.Add64(gf233.Mul64(q.Y, z12), p.Y)
	b := gf233.Add64(gf233.Mul64(q.X, p.Z), p.X)
	if b == gf233.Zero64 {
		if a == gf233.Zero64 {
			return p.Double()
		}
		return LD64Infinity
	}
	c := gf233.Mul64(p.Z, b)
	z3 := gf233.Sqr64(c)
	d := gf233.Mul64(q.X, z3)
	b2 := gf233.Sqr64(b)
	x3 := gf233.Add64(gf233.Sqr64(a), gf233.Mul64(c, gf233.Add64(a, b2)))
	e := gf233.Mul64(a, c)
	y3 := gf233.Add64(
		gf233.Mul64(gf233.Add64(d, x3), gf233.Add64(e, z3)),
		gf233.Mul64(gf233.Add64(q.X, q.Y), gf233.Sqr64(z3)),
	)
	return LD64{X: x3, Y: y3, Z: z3}
}

// SubMixed returns p - q for affine q.
func (p LD64) SubMixed(q Affine64) LD64 { return p.AddMixed(q.Neg()) }

// FrobeniusN returns τ^k(p) = (X^(2^k), Y^(2^k), Z^(2^k)) with one
// call to the three-chain squaring kernel; k = 0 returns p. The
// variable-time τ-and-add loops (internal/core) defer τ across zero
// digits and apply the accumulated power here, just before the next
// addition. The point at infinity (1, 0, 0) maps to itself.
func (p LD64) FrobeniusN(k int) LD64 {
	if k > 0 {
		gf233.SqrN64x3(&p.X, &p.Y, &p.Z, k)
	}
	return p
}
