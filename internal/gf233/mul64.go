package gf233

// 64-bit multiplication. MulTo is the dispatching entry point the
// point-arithmetic hot loops call; it writes the product through a
// destination pointer, in the calling convention of the toolchain's
// crypto/internal/fips140/edwards25519/field, so a 32-byte operand or
// result is never copied through the stack on its way to the kernel.
// It selects between the implementations:
//
//	MulLD64        — w=4 windowed LD with the whole double-width
//	                 accumulator held in scalar locals, the 64-bit port
//	                 of the paper's "LD with fixed registers" idea: on a
//	                 16-register host the entire 8-word accumulator fits
//	                 in registers, so the method-C layout degenerates to
//	                 keeping everything fixed;
//	MulKaratsuba64 — one Karatsuba split at 128 bits on top of 2x2-word
//	                 windowed LD half-products, the classic alternative
//	                 for doubling word size, kept as an ablation and as
//	                 an independent implementation for differential
//	                 testing;
//	MulClmul       — the PCLMULQDQ assembly path (clmul.go), selected by
//	                 MulTo when the CLMUL backend is active.
//
// All produce bit-identical results to the 32-bit reference methods
// A/B/C; fuzz64_test.go enforces that.

// mulTable64 holds the LD precomputation table T(u) = u(z)·y(z) for all
// polynomials u of degree < 4. deg(u·y) <= 3+232 = 235 < 256, so each
// entry fits in 4 words.
type mulTable64 [lutSize]Elem64

// buildTable64 computes the LD lookup table for multiplicand y.
func buildTable64(y Elem64) mulTable64 {
	var t mulTable64
	t[1] = y
	for u := 2; u < lutSize; u++ {
		if u&1 == 0 {
			h := &t[u/2]
			t[u] = Elem64{
				h[0] << 1,
				h[1]<<1 | h[0]>>63,
				h[2]<<1 | h[1]>>63,
				h[3]<<1 | h[2]>>63,
			}
		} else {
			t[u] = Add64(t[u-1], y)
		}
	}
	return t
}

// MulTo sets *z = a*b in the 64-bit representation, via the
// multiplier of the selected backend: PCLMULQDQ assembly when
// BackendCLMUL is active, the windowed LD otherwise. This is the
// multiplication every 64-bit point-arithmetic path (internal/ec,
// internal/core, internal/engine) calls, so backend selection reaches
// them with zero call-site changes. z may alias a, b or both: every
// implementation reads both operands before it writes z.
func MulTo(z, a, b *Elem64) {
	if CurrentBackend() == BackendCLMUL {
		mulClmulAsm(z, a, b)
		return
	}
	*z = MulLD64(*a, *b)
}

// Mul64 returns a*b via MulTo, for callers that hold values.
func Mul64(a, b Elem64) Elem64 {
	MulTo(&a, &a, &b)
	return a
}

// MulLD64 returns a*b via the portable windowed LD with fixed
// registers: the raw 466-bit product is accumulated in eight scalar
// locals and reduced without ever touching an accumulator array.
func MulLD64(a, b Elem64) Elem64 {
	t := buildTable64(b)
	var c0, c1, c2, c3, c4, c5, c6, c7 uint64
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	for j := 64/W - 1; j >= 0; j-- {
		s := uint(W * j)
		e := &t[a0>>s&(lutSize-1)]
		c0 ^= e[0]
		c1 ^= e[1]
		c2 ^= e[2]
		c3 ^= e[3]
		e = &t[a1>>s&(lutSize-1)]
		c1 ^= e[0]
		c2 ^= e[1]
		c3 ^= e[2]
		c4 ^= e[3]
		e = &t[a2>>s&(lutSize-1)]
		c2 ^= e[0]
		c3 ^= e[1]
		c4 ^= e[2]
		c5 ^= e[3]
		e = &t[a3>>s&(lutSize-1)]
		c3 ^= e[0]
		c4 ^= e[1]
		c5 ^= e[2]
		c6 ^= e[3]
		if j != 0 {
			// v(z) <- v(z) * z^4, entirely in registers.
			c7 = c7<<4 | c6>>60
			c6 = c6<<4 | c5>>60
			c5 = c5<<4 | c4>>60
			c4 = c4<<4 | c3>>60
			c3 = c3<<4 | c2>>60
			c2 = c2<<4 | c1>>60
			c1 = c1<<4 | c0>>60
			c0 <<= 4
		}
	}
	return reduce64Regs(c0, c1, c2, c3, c4, c5, c6, c7)
}

// mul2x2 computes the raw product of two 2-word (128-bit) operands into
// 4 words with a w=4 windowed LD loop. Table entries need 3 words:
// deg(u·y) <= 3+127 = 130.
func mul2x2(a0, a1, b0, b1 uint64) (r0, r1, r2, r3 uint64) {
	var t [lutSize][3]uint64
	t[1] = [3]uint64{b0, b1, 0}
	for u := 2; u < lutSize; u++ {
		if u&1 == 0 {
			h := &t[u/2]
			t[u] = [3]uint64{h[0] << 1, h[1]<<1 | h[0]>>63, h[2]<<1 | h[1]>>63}
		} else {
			h := &t[u-1]
			t[u] = [3]uint64{h[0] ^ b0, h[1] ^ b1, h[2]}
		}
	}
	var c0, c1, c2, c3 uint64
	for j := 64/W - 1; j >= 0; j-- {
		s := uint(W * j)
		e := &t[a0>>s&(lutSize-1)]
		c0 ^= e[0]
		c1 ^= e[1]
		c2 ^= e[2]
		e = &t[a1>>s&(lutSize-1)]
		c1 ^= e[0]
		c2 ^= e[1]
		c3 ^= e[2]
		if j != 0 {
			c3 = c3<<4 | c2>>60
			c2 = c2<<4 | c1>>60
			c1 = c1<<4 | c0>>60
			c0 <<= 4
		}
	}
	return c0, c1, c2, c3
}

// MulKaratsuba64 returns a*b via one Karatsuba split at 128 bits:
// with a = a1·z^128 + a0 and b = b1·z^128 + b0,
//
//	a·b = p2·z^256 + (p0 + p2 + (a0+a1)(b0+b1))·z^128 + p0
//
// where p0 = a0·b0 and p2 = a1·b1 (additions are XOR, so the middle
// term needs no subtractions). Three 2x2-word LD half-products replace
// the single 4x4-word pass.
func MulKaratsuba64(a, b Elem64) Elem64 {
	p00, p01, p02, p03 := mul2x2(a[0], a[1], b[0], b[1])
	p20, p21, p22, p23 := mul2x2(a[2], a[3], b[2], b[3])
	m0, m1, m2, m3 := mul2x2(a[0]^a[2], a[1]^a[3], b[0]^b[2], b[1]^b[3])
	m0 ^= p00 ^ p20
	m1 ^= p01 ^ p21
	m2 ^= p02 ^ p22
	m3 ^= p03 ^ p23
	return reduce64Regs(
		p00, p01, p02^m0, p03^m1,
		p20^m2, p21^m3, p22, p23,
	)
}
