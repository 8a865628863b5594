package core

import (
	"math/big"
	"math/bits"
	"sync"

	"repro/internal/ec"
)

// modn_ct.go — constant-time arithmetic modulo the group order n for
// the hardened signing path.
//
// The fast ModN.Inv is a binary extended Euclidean algorithm whose
// iteration count and branch pattern depend on the value being
// inverted — exactly the nonce, in the signing equation. The hardened
// path replaces it with a fixed-iteration Fermat ladder over
// Montgomery multiplication: 4-word CIOS products, a fixed 232-step
// square-and-multiply on the public exponent n − 2, and masked final
// subtractions. s = k⁻¹(e + r·d) assembles entirely on fixed-width
// words (SignSCT), so no big.Int operation ever touches the nonce or
// the private scalar on this path.

// montK holds the public Montgomery constants for n, computed once.
var montK struct {
	once  sync.Once
	n0inv uint64 // −n⁻¹ mod 2^64
	rr    words4 // R² mod n, R = 2^256
	oneM  words4 // R mod n (1 in Montgomery form)
	nm2   words4 // n − 2, the Fermat exponent (public)
}

func montInit() {
	montK.once.Do(func() {
		// Newton iteration for n[0]⁻¹ mod 2^64 (n is odd).
		x := orderW4[0]
		inv := x
		for i := 0; i < 5; i++ {
			inv *= 2 - x*inv
		}
		montK.n0inv = -inv
		r := new(big.Int).Lsh(big.NewInt(1), 256)
		montK.oneM = toWords4(new(big.Int).Mod(r, ec.Order))
		rr := new(big.Int).Mul(r, r)
		montK.rr = toWords4(rr.Mod(rr, ec.Order))
		montK.nm2 = toWords4(new(big.Int).Sub(ec.Order, big.NewInt(2)))
	})
}

// montMul returns a·b·R⁻¹ mod n (CIOS, fixed instruction sequence,
// masked final subtraction). The four rounds are unrolled by hand with
// all state in locals: the Fermat nonce inversion runs ~290 of these
// back to back, and keeping t in registers instead of a looped array
// is worth ~30% of the hardened signing assembly.
func montMul(a, b *words4) words4 {
	n0 := montK.n0inv
	q0, q1, q2, q3 := orderW4[0], orderW4[1], orderW4[2], orderW4[3]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	var t0, t1, t2, t3, t4, t5 uint64
	var hi, lo, c, cc, m uint64

	// Round 0: t = a·b[0]; t += m·n; t >>= 64. The shift is the word
	// rename at the end of each round; t0 is zero there by choice of m.
	bi := b[0]
	hi, lo = bits.Mul64(a0, bi)
	t0, cc = bits.Add64(t0, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(a1, bi)
	t1, cc = bits.Add64(t1, lo, 0)
	hi += cc
	t1, cc = bits.Add64(t1, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(a2, bi)
	t2, cc = bits.Add64(t2, lo, 0)
	hi += cc
	t2, cc = bits.Add64(t2, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(a3, bi)
	t3, cc = bits.Add64(t3, lo, 0)
	hi += cc
	t3, cc = bits.Add64(t3, c, 0)
	c = hi + cc
	t4, cc = bits.Add64(t4, c, 0)
	t5 += cc
	m = t0 * n0
	hi, lo = bits.Mul64(m, q0)
	t0, cc = bits.Add64(t0, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(m, q1)
	t1, cc = bits.Add64(t1, lo, 0)
	hi += cc
	t1, cc = bits.Add64(t1, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(m, q2)
	t2, cc = bits.Add64(t2, lo, 0)
	hi += cc
	t2, cc = bits.Add64(t2, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(m, q3)
	t3, cc = bits.Add64(t3, lo, 0)
	hi += cc
	t3, cc = bits.Add64(t3, c, 0)
	c = hi + cc
	t4, cc = bits.Add64(t4, c, 0)
	t5 += cc
	t0, t1, t2, t3, t4, t5 = t1, t2, t3, t4, t5, 0

	// Round 1.
	bi = b[1]
	hi, lo = bits.Mul64(a0, bi)
	t0, cc = bits.Add64(t0, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(a1, bi)
	t1, cc = bits.Add64(t1, lo, 0)
	hi += cc
	t1, cc = bits.Add64(t1, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(a2, bi)
	t2, cc = bits.Add64(t2, lo, 0)
	hi += cc
	t2, cc = bits.Add64(t2, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(a3, bi)
	t3, cc = bits.Add64(t3, lo, 0)
	hi += cc
	t3, cc = bits.Add64(t3, c, 0)
	c = hi + cc
	t4, cc = bits.Add64(t4, c, 0)
	t5 += cc
	m = t0 * n0
	hi, lo = bits.Mul64(m, q0)
	t0, cc = bits.Add64(t0, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(m, q1)
	t1, cc = bits.Add64(t1, lo, 0)
	hi += cc
	t1, cc = bits.Add64(t1, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(m, q2)
	t2, cc = bits.Add64(t2, lo, 0)
	hi += cc
	t2, cc = bits.Add64(t2, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(m, q3)
	t3, cc = bits.Add64(t3, lo, 0)
	hi += cc
	t3, cc = bits.Add64(t3, c, 0)
	c = hi + cc
	t4, cc = bits.Add64(t4, c, 0)
	t5 += cc
	t0, t1, t2, t3, t4, t5 = t1, t2, t3, t4, t5, 0

	// Round 2.
	bi = b[2]
	hi, lo = bits.Mul64(a0, bi)
	t0, cc = bits.Add64(t0, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(a1, bi)
	t1, cc = bits.Add64(t1, lo, 0)
	hi += cc
	t1, cc = bits.Add64(t1, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(a2, bi)
	t2, cc = bits.Add64(t2, lo, 0)
	hi += cc
	t2, cc = bits.Add64(t2, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(a3, bi)
	t3, cc = bits.Add64(t3, lo, 0)
	hi += cc
	t3, cc = bits.Add64(t3, c, 0)
	c = hi + cc
	t4, cc = bits.Add64(t4, c, 0)
	t5 += cc
	m = t0 * n0
	hi, lo = bits.Mul64(m, q0)
	t0, cc = bits.Add64(t0, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(m, q1)
	t1, cc = bits.Add64(t1, lo, 0)
	hi += cc
	t1, cc = bits.Add64(t1, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(m, q2)
	t2, cc = bits.Add64(t2, lo, 0)
	hi += cc
	t2, cc = bits.Add64(t2, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(m, q3)
	t3, cc = bits.Add64(t3, lo, 0)
	hi += cc
	t3, cc = bits.Add64(t3, c, 0)
	c = hi + cc
	t4, cc = bits.Add64(t4, c, 0)
	t5 += cc
	t0, t1, t2, t3, t4, t5 = t1, t2, t3, t4, t5, 0

	// Round 3.
	bi = b[3]
	hi, lo = bits.Mul64(a0, bi)
	t0, cc = bits.Add64(t0, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(a1, bi)
	t1, cc = bits.Add64(t1, lo, 0)
	hi += cc
	t1, cc = bits.Add64(t1, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(a2, bi)
	t2, cc = bits.Add64(t2, lo, 0)
	hi += cc
	t2, cc = bits.Add64(t2, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(a3, bi)
	t3, cc = bits.Add64(t3, lo, 0)
	hi += cc
	t3, cc = bits.Add64(t3, c, 0)
	c = hi + cc
	t4, cc = bits.Add64(t4, c, 0)
	t5 += cc
	m = t0 * n0
	hi, lo = bits.Mul64(m, q0)
	t0, cc = bits.Add64(t0, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(m, q1)
	t1, cc = bits.Add64(t1, lo, 0)
	hi += cc
	t1, cc = bits.Add64(t1, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(m, q2)
	t2, cc = bits.Add64(t2, lo, 0)
	hi += cc
	t2, cc = bits.Add64(t2, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(m, q3)
	t3, cc = bits.Add64(t3, lo, 0)
	hi += cc
	t3, cc = bits.Add64(t3, c, 0)
	c = hi + cc
	t4, cc = bits.Add64(t4, c, 0)
	t5 += cc
	t0, t1, t2, t3, t4 = t1, t2, t3, t4, t5

	// t < 2n over five words (t4 ∈ {0, 1}); one masked subtraction.
	var s0, s1, s2, s3, borrow uint64
	s0, borrow = bits.Sub64(t0, q0, 0)
	s1, borrow = bits.Sub64(t1, q1, borrow)
	s2, borrow = bits.Sub64(t2, q2, borrow)
	s3, borrow = bits.Sub64(t3, q3, borrow)
	_, borrow = bits.Sub64(t4, 0, borrow)
	mask := borrow - 1 // all-ones when t ≥ n
	return words4{
		s0&mask | t0&^mask,
		s1&mask | t1&^mask,
		s2&mask | t2&^mask,
		s3&mask | t3&^mask,
	}
}

// ctAddMod4 returns a + b mod n for a, b in [0, n) with a masked
// conditional subtraction (the 233-bit sum never carries out of the
// top word).
func ctAddMod4(a, b *words4) words4 {
	var t words4
	var carry uint64
	t[0], carry = bits.Add64(a[0], b[0], 0)
	t[1], carry = bits.Add64(a[1], b[1], carry)
	t[2], carry = bits.Add64(a[2], b[2], carry)
	t[3], _ = bits.Add64(a[3], b[3], carry)
	var s words4
	var borrow uint64
	s[0], borrow = bits.Sub64(t[0], orderW4[0], 0)
	s[1], borrow = bits.Sub64(t[1], orderW4[1], borrow)
	s[2], borrow = bits.Sub64(t[2], orderW4[2], borrow)
	s[3], borrow = bits.Sub64(t[3], orderW4[3], borrow)
	mask := borrow - 1
	var r words4
	for i := 0; i < 4; i++ {
		r[i] = s[i]&mask | t[i]&^mask
	}
	return r
}

// toMont converts to Montgomery form.
func toMont(a *words4) words4 { return montMul(a, &montK.rr) }

// fromMont converts out of Montgomery form.
func fromMont(a *words4) words4 {
	one := words4{1}
	return montMul(a, &one)
}

// ctInvMont returns a⁻¹ in Montgomery form for a in Montgomery form,
// a ≢ 0: a Fermat ladder a^(n−2) with a fixed 232-iteration
// left-to-right square-and-multiply. The exponent n − 2 is public, so
// its bit pattern may steer the multiply; the base and every
// intermediate are secret and only ever flow through montMul.
func ctInvMont(a *words4) words4 {
	montInit()
	// Bit 231 of n − 2 is set: seed with the base and walk the rest.
	r := *a
	for i := 230; i >= 0; i-- {
		r = montMul(&r, &r)
		if montK.nm2[i>>6]>>(uint(i)&63)&1 == 1 {
			r = montMul(&r, a)
		}
	}
	return r
}

// words4CT stages 0 ≤ v < 2^256 into fixed-width words through the
// ModN's byte buffer: FillBytes writes all 32 bytes regardless of the
// value, unlike Bits(), whose length tracks the value's magnitude.
func (m *ModN) words4CT(v *big.Int) words4 {
	v.FillBytes(m.buf[:])
	var w words4
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			w[i] = w[i]<<8 | uint64(m.buf[32-8*i-8+j])<<0
		}
	}
	return w
}

// InvCT sets dst = a⁻¹ mod n for a in [1, n−1] on the fixed-iteration
// Fermat ladder — the constant-time replacement for Inv on the
// hardened path. The results are identical.
func (m *ModN) InvCT(dst, a *big.Int) {
	montInit()
	aw := m.words4CT(a)
	am := toMont(&aw)
	im := ctInvMont(&am)
	iw := fromMont(&im)
	m.setBig(dst, &iw)
}

// MulCT sets dst = a·b mod n via Montgomery multiplication (constant
// time for a, b in [0, n)). dst may alias a or b.
func (m *ModN) MulCT(dst, a, b *big.Int) {
	montInit()
	aw := m.words4CT(a)
	bw := m.words4CT(b)
	am := toMont(&aw)
	bm := toMont(&bw)
	pm := montMul(&am, &bm)
	pw := fromMont(&pm)
	m.setBig(dst, &pw)
}

// SignSCT computes the ECDSA assembly s = k⁻¹·(e + r·d) mod n
// entirely on fixed-width constant-time words: Montgomery products, a
// masked modular addition, and the Fermat nonce inversion. Inputs must
// be canonical residues (0 ≤ v < n; k, d nonzero). The result is
// bit-identical to the fast big.Int assembly.
func (m *ModN) SignSCT(dst, k, e, r, d *big.Int) {
	montInit()
	kw := m.words4CT(k)
	ew := m.words4CT(e)
	rw := m.words4CT(r)
	dw := m.words4CT(d)
	km := toMont(&kw)
	em := toMont(&ew)
	rm := toMont(&rw)
	dm := toMont(&dw)
	rd := montMul(&rm, &dm)
	sum := ctAddMod4(&rd, &em)
	ki := ctInvMont(&km)
	sm := montMul(&ki, &sum)
	sw := fromMont(&sm)
	m.setBig(dst, &sw)
}
