package ec

import "repro/internal/gf233"

// 64-bit-native point arithmetic: the same LD/mixed-affine formulas as
// ld.go, expressed directly over gf233.Elem64 so the point-
// multiplication hot loops (internal/core) never pay a per-field-op
// representation conversion. The formulas are ports, not variants —
// the differential tests in ec_test.go hold them bit-identical to the
// 32-bit reference path.
//
// The LD64 group operations (Double, AddMixed, SubMixed, FrobeniusN)
// have pointer receivers and update the point in place, and their
// field arithmetic runs on the pointer forms gf233.MulTo, SqrTo and
// AddTo, writing each result into a coordinate or a local temporary.
// A 96-byte point is never passed or returned by value in a hot loop,
// and a 32-byte element never crosses a call by value: this is the
// host's counterpart of the paper's LD multiplication "with fixed
// registers" (Algorithm 1), whose gain is not moving operands through
// memory.

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
	gf233.SqrTo(&p.X, &p.X)
	gf233.SqrTo(&p.Y, &p.Y)
	return p
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

// IsInfinity reports whether p is the point at infinity. The pointer
// receiver keeps the in-place operations from copying the whole point
// to test it.
func (p *LD64) IsInfinity() bool { return p.Z == gf233.Zero64 }

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
	q := Affine64{X: p.X, Y: p.Y}
	gf233.MulTo(&q.X, &q.X, &zi)
	gf233.SqrTo(&zi, &zi)
	gf233.MulTo(&q.Y, &q.Y, &zi)
	return q
}

// Double sets p = 2p — the port of LD.Double (Hankerson et al.
// Alg. 3.25, a = 0, b = 1):
//
//	Z3 = X²·Z², X3 = X⁴ + Z⁴, Y3 = Z⁴·Z3 + X3·(Y² + Z⁴).
func (p *LD64) Double() {
	if p.IsInfinity() {
		return
	}
	if p.X == gf233.Zero64 {
		*p = LD64Infinity
		return
	}
	var x2, z4, t gf233.Elem64
	gf233.SqrTo(&x2, &p.X)
	gf233.SqrTo(&z4, &p.Z)
	gf233.MulTo(&p.Z, &x2, &z4) // Z3 = X²·Z²
	gf233.SqrTo(&z4, &z4)
	gf233.SqrTo(&p.X, &x2)
	gf233.AddTo(&p.X, &p.X, &z4) // X3
	gf233.SqrTo(&t, &p.Y)
	gf233.AddTo(&t, &t, &z4)
	gf233.MulTo(&t, &t, &p.X)
	gf233.MulTo(&p.Y, &z4, &p.Z)
	gf233.AddTo(&p.Y, &p.Y, &t) // Y3
}

// AddMixed sets p = p + q for affine q — the port of LD.AddMixed
// (Hankerson et al. Alg. 3.27), a total group operation.
func (p *LD64) AddMixed(q *Affine64) {
	if q.Inf {
		return
	}
	p.addMixed(&q.X, &q.Y)
}

// SubMixed sets p = p − q for affine q: the addition of −q =
// (x, x + y), with the negated ordinate formed in a local.
func (p *LD64) SubMixed(q *Affine64) {
	if q.Inf {
		return
	}
	var ny gf233.Elem64
	gf233.AddTo(&ny, &q.X, &q.Y)
	p.addMixed(&q.X, &ny)
}

// addMixed sets p = p + (x, y) for a finite affine operand:
//
//	A = y·Z² + Y, B = x·Z + X, C = Z·B, Z3 = C²,
//	X3 = A² + C·(A + B²), Y3 = (x·Z3 + X3)·(A·C + Z3) + (x + y)·Z3².
func (p *LD64) addMixed(x, y *gf233.Elem64) {
	if p.IsInfinity() {
		*p = LD64{X: *x, Y: *y, Z: gf233.One64}
		return
	}
	var a, b, c, t gf233.Elem64
	gf233.SqrTo(&a, &p.Z)
	gf233.MulTo(&a, &a, y)
	gf233.AddTo(&a, &a, &p.Y) // A
	gf233.MulTo(&b, x, &p.Z)
	gf233.AddTo(&b, &b, &p.X) // B
	if b == gf233.Zero64 {
		if a == gf233.Zero64 {
			p.Double()
			return
		}
		*p = LD64Infinity
		return
	}
	gf233.MulTo(&c, &p.Z, &b) // C
	gf233.SqrTo(&p.Z, &c)     // Z3
	gf233.SqrTo(&b, &b)
	gf233.AddTo(&b, &b, &a)
	gf233.MulTo(&b, &b, &c)
	gf233.SqrTo(&p.X, &a)
	gf233.AddTo(&p.X, &p.X, &b) // X3
	gf233.MulTo(&a, &a, &c)
	gf233.AddTo(&a, &a, &p.Z) // A·C + Z3
	gf233.MulTo(&t, x, &p.Z)
	gf233.AddTo(&t, &t, &p.X) // x·Z3 + X3
	gf233.MulTo(&a, &a, &t)
	gf233.SqrTo(&t, &p.Z)
	gf233.AddTo(&c, x, y)
	gf233.MulTo(&t, &t, &c)
	gf233.AddTo(&p.Y, &a, &t) // Y3
}

// FrobeniusN sets p = τ^k(p) = (X^(2^k), Y^(2^k), Z^(2^k)) with one
// call to the three-chain squaring kernel; k = 0 leaves p. The
// variable-time τ-and-add loops (internal/core) defer τ across zero
// digits and apply the accumulated power here, just before the next
// addition. The point at infinity (1, 0, 0) maps to itself.
func (p *LD64) FrobeniusN(k int) {
	if k > 0 {
		gf233.SqrN64x3(&p.X, &p.Y, &p.Z, k)
	}
}
