package gf233

import "math/bits"

// Inversion (§3.2.3 of the paper): the extended Euclidean algorithm for
// binary polynomials (Hankerson et al., Alg. 2.48), with the paper's two
// implementation tricks mirrored at the word level:
//
//   - the expensive multi-precision swap of u and v is avoided in the
//     assembly version by duplicating the loop body with the roles
//     interchanged; in Go the swap of fixed-size arrays is a register
//     move, and the opcount/codegen layers model the duplicated-segment
//     cost explicitly;
//   - the index of the most significant non-zero word of u and v is
//     tracked so the degree computation and the shifted additions touch
//     only live words.

// modWords is the reduction polynomial f(x) = x^233 + x^74 + 1 in the
// same 8-word layout as Elem (bit 233 = word 7 bit 9).
var modWords = [NumWords]uint32{
	1, 0, 1 << (ReductionExp % 32), 0, 0, 0, 0, 1 << TopBits,
}

// degreeFrom returns the degree of the polynomial in w, scanning
// downward from word index hint (inclusive). Returns -1 for zero.
func degreeFrom(w *[NumWords]uint32, hint int) int {
	for i := hint; i >= 0; i-- {
		if w[i] != 0 {
			return i*32 + bits.Len32(w[i]) - 1
		}
	}
	return -1
}

// addShl computes dst ^= src << j for 0 <= j < 256, touching only words
// up to limit (the MSW tracking optimisation).
func addShl(dst, src *[NumWords]uint32, j, limit int) {
	ws, bs := j/32, uint(j%32)
	if bs == 0 {
		for i := limit; i >= ws; i-- {
			dst[i] ^= src[i-ws]
		}
		return
	}
	for i := limit; i >= ws; i-- {
		v := src[i-ws] << bs
		if i-ws-1 >= 0 {
			v |= src[i-ws-1] >> (32 - bs)
		}
		dst[i] ^= v
	}
}

// InvEEA returns a^-1 in F_2^233 via the extended Euclidean algorithm
// on the 32-bit reference representation. It reports ok=false for the
// zero element, which has no inverse.
func InvEEA(a Elem) (inv Elem, ok bool) {
	if a.IsZero() {
		return Zero, false
	}
	u := [NumWords]uint32(a)
	v := modWords
	var g1, g2 [NumWords]uint32
	g1[0] = 1
	du, dv := degreeFrom(&u, NumWords-1), M
	for du != 0 {
		j := du - dv
		if j < 0 {
			// The paper's assembly avoids this swap with a duplicated
			// code segment; semantically the roles of (u,g1) and (v,g2)
			// are exchanged.
			u, v = v, u
			g1, g2 = g2, g1
			du, dv = dv, du
			j = -j
		}
		addShl(&u, &v, j, du/32)
		addShl(&g1, &g2, j, NumWords-1)
		du = degreeFrom(&u, du/32)
	}
	return Elem(g1), true
}

// MustInv is Inv for values known to be nonzero; it panics on zero.
func MustInv(a Elem) Elem {
	inv, ok := Inv(a)
	if !ok {
		panic("gf233: inverse of zero")
	}
	return inv
}

// Div returns a/b = a * b^-1. It reports ok=false when b is zero.
func Div(a, b Elem) (Elem, bool) {
	bi, ok := Inv(b)
	if !ok {
		return Zero, false
	}
	return Mul(a, bi), true
}

// InvBatch inverts every element of a in place using Montgomery's
// batching trick: n inversions cost one field inversion plus 3(n−1)
// multiplications. Precomputation layers (fixed-base tables) use it to
// normalise many projective points at once. It panics if any element
// is zero.
func InvBatch(a []Elem) {
	if len(a) == 0 {
		return
	}
	// Prefix products: acc[i] = a[0]·…·a[i].
	acc := make([]Elem, len(a))
	acc[0] = a[0]
	for i := 1; i < len(a); i++ {
		acc[i] = Mul(acc[i-1], a[i])
	}
	inv := MustInv(acc[len(a)-1])
	for i := len(a) - 1; i > 0; i-- {
		a[i], inv = Mul(inv, acc[i-1]), Mul(inv, a[i])
	}
	a[0] = inv
}

// InvItohTsujii computes a^-1 = a^(2^233 - 2) with an Itoh–Tsujii
// multiplicative chain (addition chain 1,2,3,6,7,14,28,29,58,116,232 for
// the exponent 2^232 - 1). It trades the EEA's shifts and compares for
// 10 field multiplications and 232 squarings — the classic alternative
// the EEA choice in §3.2.3 is implicitly measured against, kept here as
// an ablation.
func InvItohTsujii(a Elem) (Elem, bool) {
	if a.IsZero() {
		return Zero, false
	}
	// t(k) denotes a^(2^k - 1); t(k+j) = t(k)^(2^j) * t(j).
	t1 := a
	t2 := Mul(SqrN(t1, 1), t1)
	t3 := Mul(SqrN(t2, 1), t1)
	t6 := Mul(SqrN(t3, 3), t3)
	t7 := Mul(SqrN(t6, 1), t1)
	t14 := Mul(SqrN(t7, 7), t7)
	t28 := Mul(SqrN(t14, 14), t14)
	t29 := Mul(SqrN(t28, 1), t1)
	t58 := Mul(SqrN(t29, 29), t29)
	t116 := Mul(SqrN(t58, 58), t58)
	t232 := Mul(SqrN(t116, 116), t116)
	// a^-1 = (a^(2^232 - 1))^2.
	return Sqr(t232), true
}
