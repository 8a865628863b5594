package gf233

import "math/bits"

// 64-bit extended Euclidean inversion: the same algorithm and MSW
// tracking as the 32-bit reference (inv.go), rehosted on 4-word
// operands so every shift-and-add touches half the words.

// modWords64 is the reduction polynomial f(x) = x^233 + x^74 + 1 in the
// Elem64 layout (bit 233 = word 3 bit 41, bit 74 = word 1 bit 10).
var modWords64 = Elem64{1, 1 << (ReductionExp - 64), 0, 1 << TopBits64}

// degreeFrom64 returns the degree of the polynomial in w, scanning
// downward from word index hint (inclusive). Returns -1 for zero.
func degreeFrom64(w *Elem64, hint int) int {
	for i := hint; i >= 0; i-- {
		if w[i] != 0 {
			return i*64 + bits.Len64(w[i]) - 1
		}
	}
	return -1
}

// addShl64 computes dst ^= src << j for 0 <= j < 256, touching only
// words up to limit.
func addShl64(dst, src *Elem64, j, limit int) {
	ws, bs := j/64, uint(j%64)
	if bs == 0 {
		for i := limit; i >= ws; i-- {
			dst[i] ^= src[i-ws]
		}
		return
	}
	for i := limit; i >= ws; i-- {
		v := src[i-ws] << bs
		if i-ws-1 >= 0 {
			v |= src[i-ws-1] >> (64 - bs)
		}
		dst[i] ^= v
	}
}

// Inv64 returns a^-1 via the extended Euclidean algorithm on the
// 64-bit representation. It is deliberately non-dispatching: alongside
// InvEEA it is the differential reference the Itoh–Tsujii chain is
// fuzz-checked against, and it remains the hot-path inversion of
// Backend64, where squaring is too expensive for the multiplicative
// chain to win. It reports ok=false for the zero element.
func Inv64(a Elem64) (inv Elem64, ok bool) {
	if a.IsZero() {
		return Zero64, false
	}
	u := a
	v := modWords64
	var g1, g2 Elem64
	g1[0] = 1
	du, dv := degreeFrom64(&u, NumWords64-1), M
	for du != 0 {
		j := du - dv
		if j < 0 {
			u, v = v, u
			g1, g2 = g2, g1
			du, dv = dv, du
			j = -j
		}
		addShl64(&u, &v, j, du/64)
		addShl64(&g1, &g2, j, NumWords64-1)
		du = degreeFrom64(&u, du/64)
	}
	return g1, true
}

// InvItohTsujii64 computes a^-1 = a^(2^233 - 2) with the Itoh–Tsujii
// multiplicative chain (addition chain 1,2,3,6,7,14,28,29,58,116,232
// for the exponent 2^232 - 1): 10 multiplications and 232 squarings
// on the CLMUL kernels regardless of the backend selection, so the
// squaring runs in the fused assembly loop (like every named variant;
// on hardware without CLMUL each step degrades to the pure-Go path).
// This is the hot-path inversion of BackendCLMUL — with carry-less
// squaring at a few nanoseconds the chain beats the EEA's word-serial
// shift cascade — and the 64-bit sibling of the 32-bit InvItohTsujii
// ablation (inv.go). It reports ok=false for the zero element.
func InvItohTsujii64(a Elem64) (Elem64, bool) {
	if a.IsZero() {
		return Zero64, false
	}
	// t(k) denotes a^(2^k - 1); t(k+j) = t(k)^(2^j) * t(j).
	var t2, t3, t6, t7, t14, t28, t29, t58, t116, t232 Elem64
	t1 := &a
	itStep(&t2, t1, 1, t1)
	itStep(&t3, &t2, 1, t1)
	itStep(&t6, &t3, 3, &t3)
	itStep(&t7, &t6, 1, t1)
	itStep(&t14, &t7, 7, &t7)
	itStep(&t28, &t14, 14, &t14)
	itStep(&t29, &t28, 1, t1)
	itStep(&t58, &t29, 29, &t29)
	itStep(&t116, &t58, 58, &t58)
	itStep(&t232, &t116, 116, &t116)
	// a^-1 = (a^(2^232 - 1))^2.
	return SqrClmul(t232), true
}

// itStep sets *z = t^(2^n) * u, one step of the Itoh–Tsujii chain, on
// the pinned CLMUL kernels. z must not alias u.
func itStep(z, t *Elem64, n int, u *Elem64) {
	sqrNClmulTo(z, t, n)
	mulClmulTo(z, z, u)
}

// inv64Dispatch returns a^-1 via the inversion method of the selected
// backend: the Itoh–Tsujii chain on BackendCLMUL, the EEA otherwise.
// The generic Inv and the hot-path MustInv64 both route through it.
func inv64Dispatch(a Elem64) (Elem64, bool) {
	if CurrentBackend() == BackendCLMUL {
		return InvItohTsujii64(a)
	}
	return Inv64(a)
}

// MustInv64 is the dispatching hot-path inversion for values known to
// be nonzero (Itoh–Tsujii on BackendCLMUL, EEA otherwise); it panics
// on zero.
func MustInv64(a Elem64) Elem64 {
	inv, ok := inv64Dispatch(a)
	if !ok {
		panic("gf233: inverse of zero")
	}
	return inv
}
