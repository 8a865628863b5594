package core

import (
	"math/big"
	"math/bits"

	"repro/internal/ec"
)

// modn_ct.go — the hardened signing assembly s = k⁻¹(e + r·d) mod n
// on fixed-width words. The nonce inverse is the constant-time invModN
// every path shares; the products are 4-word Montgomery (CIOS)
// multiplications with masked final subtractions, so no big.Int
// operation touches the nonce or the private scalar on this path.

// Montgomery constants for R = 2^256, computed at package init:
// −n⁻¹ mod 2^64 and R² mod n.
var (
	montN0 = -nInv64
	montRR = func() words4 {
		rr := new(big.Int).Lsh(big.NewInt(1), 512)
		return new(ModN).words(rr.Mod(rr, ec.Order))
	}()
)

// montMul returns a·b·R⁻¹ mod n for a, b in [0, n) (CIOS, fixed
// instruction sequence, masked final subtraction). Each round ends
// with t < 2n < 2^233, so four words hold t between rounds and a fifth
// (t4) is needed only within one.
func montMul(a, b *words4) words4 {
	var t words4
	for i := range b {
		// t += a·b[i], into five words.
		var c, cc uint64
		for j := range a {
			hi, lo := bits.Mul64(a[j], b[i])
			t[j], cc = bits.Add64(t[j], lo, 0)
			hi += cc
			t[j], cc = bits.Add64(t[j], c, 0)
			c = hi + cc
		}
		t4 := c
		// t = (t + m·n)/2^64, with m chosen so the low word cancels.
		m := t[0] * montN0
		hi, lo := bits.Mul64(m, orderW4[0])
		_, cc = bits.Add64(t[0], lo, 0)
		c = hi + cc
		for j := 1; j < len(t); j++ {
			hi, lo = bits.Mul64(m, orderW4[j])
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			t[j-1], cc = bits.Add64(lo, c, 0)
			c = hi + cc
		}
		t[3] = t4 + c
	}
	ctReduce(&t)
	return t
}

// ctReduce subtracts n from t < 2n under a mask when t ≥ n.
func ctReduce(t *words4) {
	var s words4
	var borrow uint64
	for i := range t {
		s[i], borrow = bits.Sub64(t[i], orderW4[i], borrow)
	}
	mask := borrow - 1 // all ones when t ≥ n
	for i := range t {
		t[i] = s[i]&mask | t[i]&^mask
	}
}

// ctAddMod4 returns a + b mod n for a, b in [0, n) (the 233-bit sum
// never carries out of the top word).
func ctAddMod4(a, b *words4) words4 {
	var t words4
	var carry uint64
	for i := range t {
		t[i], carry = bits.Add64(a[i], b[i], carry)
	}
	ctReduce(&t)
	return t
}

// toMont converts to Montgomery form.
func toMont(a *words4) words4 { return montMul(a, &montRR) }

// SignSCT computes the ECDSA assembly s = k⁻¹·(e + r·d) mod n
// entirely on fixed-width constant-time words: the safegcd nonce
// inverse, Montgomery products and a masked modular addition. Inputs
// must be canonical residues (0 ≤ v < n; k, d nonzero). The result is
// bit-identical to the fast big.Int assembly.
func (m *ModN) SignSCT(dst, k, e, r, d *big.Int) {
	kw, ew, rw, dw := m.words(k), m.words(e), m.words(r), m.words(d)
	ki := invModN(&kw)
	rm := toMont(&rw)
	rd := montMul(&rm, &dw) // r·d
	sum := ctAddMod4(&rd, &ew)
	sm := toMont(&sum)
	s := montMul(&ki, &sm) // k⁻¹·(e + r·d)
	m.setBig(dst, &s)
}
