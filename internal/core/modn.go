package core

import (
	"encoding/binary"
	"math/big"
	"math/bits"

	"repro/internal/ec"
)

// Arithmetic modulo the group order n, on four 64-bit words: the one
// mod-n arithmetic of every front end that works in the exponent
// group — the one-shot signer and verifier (internal/sign), the batch
// engine's signing and verification kernels (internal/engine) and ECQV
// issuance (internal/ecqv). Every operation is constant-time: products
// are 4-word Montgomery multiplications with masked final
// subtractions, and the one inversion is Bernstein–Yang safegcd
// (invModN). Values enter and leave as big.Int through one 32-byte
// buffer (SetBig, Big); those two conversions are the only steps whose
// cost tracks a value's length.

// Residue is a value of the exponent group as four little-endian
// 64-bit words: n has 232 bits, so every residue fits with room to
// spare. The operations take canonical residues (0 ≤ v < n) and return
// them; the zero value is 0.
type Residue [4]uint64

// SetBig sets x to v, for 0 ≤ v < 2^256, and returns x.
func (x *Residue) SetBig(v *big.Int) *Residue {
	var buf [32]byte
	v.FillBytes(buf[:])
	for i := range x {
		x[i] = binary.BigEndian.Uint64(buf[24-8*i:])
	}
	return x
}

// Big stores x into dst and returns dst. SetBytes grows dst only when
// its capacity is short, so steady-state callers allocate nothing.
func (x *Residue) Big(dst *big.Int) *big.Int {
	var buf [32]byte
	for i, w := range x {
		binary.BigEndian.PutUint64(buf[24-8*i:], w)
	}
	return dst.SetBytes(buf[:])
}

// Mul sets x = a·b mod n and returns x: a Montgomery product, then one
// by R² mod n to cancel its R⁻¹. x may alias a or b.
func (x *Residue) Mul(a, b *Residue) *Residue {
	t := montMul(a, b)
	*x = montMul(&t, &montRR)
	return x
}

// Add sets x = a + b mod n and returns x (the 233-bit sum never carries
// out of the top word). x may alias a or b.
func (x *Residue) Add(a, b *Residue) *Residue {
	var carry uint64
	for i := range x {
		x[i], carry = bits.Add64(a[i], b[i], carry)
	}
	ctReduce(x)
	return x
}

// Inv sets x = a⁻¹ mod n and returns x, with 0 mapping to 0.
func (x *Residue) Inv(a *Residue) *Residue {
	*x = invModN(a)
	return x
}

// BatchInv sets out[i] = vals[i]⁻¹ mod n for every i by Montgomery's
// trick: prefix products, ONE inversion of the full product, then a
// backward sweep. Every value must lie in [1, n−1] — n is prime, so
// the product then stays invertible — and out (len(out) == len(vals))
// must not overlap vals. The prefix products are plain Montgomery
// products, so out[i] = v₀⋯vᵢ·R⁻ⁱ: the R powers cancel in the sweep,
// and each output is exact with no R² correction. Every step is
// constant-time, so secret values (signing nonces) may share a batch.
func BatchInv(vals, out []Residue) {
	if len(vals) == 0 {
		return
	}
	out[0] = vals[0]
	for i := 1; i < len(vals); i++ {
		out[i] = montMul(&out[i-1], &vals[i])
	}
	inv := invModN(&out[len(vals)-1])
	for i := len(vals) - 1; i > 0; i-- {
		// inv = (v₀⋯vᵢ)⁻¹·Rⁱ here.
		out[i] = montMul(&inv, &out[i-1])
		inv = montMul(&inv, &vals[i])
	}
	out[0] = inv
}

// SignSCT returns the ECDSA assembly s = k⁻¹·(e + r·d) mod n from the
// nonce inverse and the canonical residues e, r and d: two Montgomery
// products, each after a conversion into Montgomery form, and a masked
// addition. It is the one assembly of s, for fast and hardened signing.
func SignSCT(kinv, e, r, d *Residue) Residue {
	rm := toMont(r)
	rd := montMul(&rm, d) // r·d
	var sum Residue
	sum.Add(&rd, e)
	sm := toMont(&sum)
	return montMul(kinv, &sm) // k⁻¹·(e + r·d)
}

// ReduceModOrder reduces 0 <= v < 2^233 modulo n in place. n has bit
// 231 set, so at most three conditional subtractions fully reduce —
// and unlike an aliased big.Int Mod they allocate nothing. This is the
// reduction both ECDSA directions apply to the shared abscissa x(R).
func ReduceModOrder(v *big.Int) {
	for v.Cmp(ec.Order) >= 0 {
		v.Sub(v, ec.Order)
	}
}

// orderW4 is n in the fixed-width representation.
var orderW4 = *new(Residue).SetBig(ec.Order)

// nInv64 is n⁻¹ mod 2^64, by Newton's iteration: n is odd, so n·n ≡ 1
// mod 8 seeds it with 3 correct bits, and each step doubles them.
var nInv64 = func() uint64 {
	x := orderW4[0]
	inv := x
	for i := 0; i < 5; i++ {
		inv *= 2 - x*inv
	}
	return inv
}()

// Montgomery constants for R = 2^256, computed at package init:
// −n⁻¹ mod 2^64 and R² mod n.
var (
	montN0 = -nInv64
	montRR = func() Residue {
		rr := new(big.Int).Lsh(big.NewInt(1), 512)
		return *new(Residue).SetBig(rr.Mod(rr, ec.Order))
	}()
)

// montMul returns a·b·R⁻¹ mod n for a, b in [0, n) (CIOS, fixed
// instruction sequence, masked final subtraction). Each round ends
// with t < 2n < 2^233, so four words hold t between rounds and a fifth
// (t4) is needed only within one.
func montMul(a, b *Residue) Residue {
	var t Residue
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
func ctReduce(t *Residue) {
	var s Residue
	var borrow uint64
	for i := range t {
		s[i], borrow = bits.Sub64(t[i], orderW4[i], borrow)
	}
	mask := borrow - 1 // all ones when t ≥ n
	for i := range t {
		t[i] = s[i]&mask | t[i]&^mask
	}
}

// toMont converts to Montgomery form.
func toMont(a *Residue) Residue { return montMul(a, &montRR) }

// Inversion modulo n by Bernstein–Yang safegcd ("Fast constant-time
// gcd computation and modular inversion", TCHES 2019), laid out as
// libsecp256k1's doc/safegcd_implementation.md does. f = n and g = a
// run a fixed number of branch-free divsteps, in batches of 62 on the
// low limbs; each batch's transition matrix then updates (f, g)
// exactly and (d, e) modulo n, keeping d·a ≡ f and e·a ≡ g. At the end
// g = 0 and f = ±gcd = ±1, so ±d is the inverse. No branch or memory
// index depends on a.

// limbs62 holds v = Σ v[i]·2^(62i): the low three limbs in [0, 2^62),
// the top one signed. |v| < 2^233 for every f, g, d and e.
type limbs62 [4]int64

const m62 = 1<<62 - 1

// divstepBatches × 62 divsteps drive g to 0 for every a < n:
// Bernstein–Yang Thm 11.2 needs ⌊(49d + 57)/17⌋ = 672 steps for
// d = 232, since f = n and g < n give f² + 4g² ≤ 5·2^(2d).
const divstepBatches = 11

var (
	order62    = toLimbs62(&orderW4)
	orderInv62 = int64(nInv64 & m62) // n⁻¹ mod 2^62
)

func toLimbs62(w *Residue) limbs62 {
	return limbs62{
		int64(w[0] & m62),
		int64((w[0]>>62 | w[1]<<2) & m62),
		int64((w[1]>>60 | w[2]<<4) & m62),
		int64(w[2]>>58 | w[3]<<6),
	}
}

// words converts v in [0, 2^256) back to a Residue.
func (v *limbs62) words() Residue {
	return Residue{
		uint64(v[0]) | uint64(v[1])<<62,
		uint64(v[1])>>2 | uint64(v[2])<<60,
		uint64(v[2])>>4 | uint64(v[3])<<58,
		uint64(v[3]) >> 6,
	}
}

// invModN returns a⁻¹ mod n for a in [0, n), and 0 for a = 0.
func invModN(a *Residue) Residue {
	f, g := order62, toLimbs62(a)
	var d, e limbs62
	e[0] = 1
	delta := int64(1)
	for i := 0; i < divstepBatches; i++ {
		var t trans62
		delta, t = divsteps62(delta, uint64(f[0]), uint64(g[0]))
		t.updateDE(&d, &e)
		t.updateFG(&f, &g)
	}
	normalize62(&d, f[3])
	return d.words()
}

// trans62 is one batch's transition matrix scaled by 2^62: afterwards
// f·2^62 = u·f₀ + v·g₀ and g·2^62 = q·f₀ + r·g₀. Each divstep at most
// doubles |u|+|v| and |q|+|r|, so both stay ≤ 2^62.
type trans62 struct{ u, v, q, r int64 }

// divsteps62 runs 62 divsteps from δ on the low 62 bits of f and g,
// which decide them all, and returns the new δ and the batch's matrix.
// One divstep is (δ, f, g) → (1 − δ, g, (g − f)/2) when δ > 0 and g is
// odd, else (1 + δ, f, (g + (g mod 2)·f)/2), written as a conditional
// negation of f and a conditional add into g under masks.
func divsteps62(delta int64, f, g uint64) (int64, trans62) {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	for i := 0; i < 62; i++ {
		c1 := uint64(-delta >> 63) // all ones when δ > 0
		c2 := -(g & 1)             // all ones when g is odd
		// g += ±f when g is odd: −f when δ > 0, else +f.
		x, y, z := (f^c1)-c1, (u^c1)-c1, (v^c1)-c1
		g += x & c2
		q += y & c2
		r += z & c2
		// When δ > 0 and g was odd, f takes the old g and δ → −δ.
		c1 &= c2
		delta = (delta ^ int64(c1)) - int64(c1) + 1
		f += g & c1
		u += q & c1
		v += r & c1
		g >>= 1
		u <<= 1
		v <<= 1
	}
	return delta, trans62{int64(u), int64(v), int64(q), int64(r)}
}

// acc128 is a signed 128-bit accumulator in two's complement.
type acc128 struct{ hi, lo uint64 }

// mulAdd adds the signed product a·b.
func (c *acc128) mulAdd(a, b int64) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	hi -= uint64(a>>63)&uint64(b) + uint64(b>>63)&uint64(a)
	var carry uint64
	c.lo, carry = bits.Add64(c.lo, lo, 0)
	c.hi += hi + carry
}

// pop62 returns the low 62 bits and shifts them out, arithmetically.
func (c *acc128) pop62() int64 {
	low := int64(c.lo & m62)
	c.lo = c.lo>>62 | c.hi<<2
	c.hi = uint64(int64(c.hi) >> 62)
	return low
}

// updateFG sets (f, g) = t·(f, g)/2^62; the division is exact.
func (t *trans62) updateFG(f, g *limbs62) {
	var cf, cg acc128
	for i := range f {
		cf.mulAdd(t.u, f[i])
		cf.mulAdd(t.v, g[i])
		cg.mulAdd(t.q, f[i])
		cg.mulAdd(t.r, g[i])
		if i == 0 {
			cf.pop62()
			cg.pop62()
		} else {
			f[i-1], g[i-1] = cf.pop62(), cg.pop62()
		}
	}
	f[3], g[3] = int64(cf.lo), int64(cg.lo)
}

// updateDE sets (d, e) = (t·(d, e) + n·(md, me))/2^62, with md and me
// chosen so that the division is exact: mod n that is t·(d, e)/2^62.
// For d, e in (−2n, n) the results stay in (−2n, n): md and me start
// with the column of t that makes each negative input effectively
// non-negative, and the correction subtracts less than 2^62.
func (t *trans62) updateDE(d, e *limbs62) {
	sd, se := d[3]>>63, e[3]>>63
	md := t.u&sd + t.v&se
	me := t.q&sd + t.r&se
	var cd, ce acc128
	cd.mulAdd(t.u, d[0])
	cd.mulAdd(t.v, e[0])
	ce.mulAdd(t.q, d[0])
	ce.mulAdd(t.r, e[0])
	md -= (orderInv62*int64(cd.lo) + md) & m62
	me -= (orderInv62*int64(ce.lo) + me) & m62
	cd.mulAdd(order62[0], md)
	ce.mulAdd(order62[0], me)
	cd.pop62()
	ce.pop62()
	for i := 1; i < len(d); i++ {
		cd.mulAdd(t.u, d[i])
		cd.mulAdd(t.v, e[i])
		cd.mulAdd(order62[i], md)
		ce.mulAdd(t.q, d[i])
		ce.mulAdd(t.r, e[i])
		ce.mulAdd(order62[i], me)
		d[i-1], e[i-1] = cd.pop62(), ce.pop62()
	}
	d[3], e[3] = int64(cd.lo), int64(ce.lo)
}

// normalize62 maps d in (−2n, n) to sign·d mod n in [0, n), where sign
// is the sign of the top limb fTop of f = ±1: add n if d < 0, negate
// if f < 0, add n again if still negative, all under masks.
func normalize62(d *limbs62, fTop int64) {
	addN := func() {
		mask := d[3] >> 63
		for i := range d {
			d[i] += order62[i] & mask
		}
	}
	carry := func() {
		for i := 0; i < len(d)-1; i++ {
			d[i+1] += d[i] >> 62
			d[i] &= m62
		}
	}
	addN()
	neg := fTop >> 63
	for i := range d {
		d[i] = (d[i] ^ neg) - neg
	}
	carry()
	addN()
	carry()
}
