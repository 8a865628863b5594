package koblitz

import (
	"math/big"
	"sync"
)

// ctrecode.go — constant-time partial reduction and fixed-length
// width-w TNAF recoding for the hardened signing path.
//
// The fast pipeline (Recode/scratchWTNAF) branches on secret digit
// values, early-exits when the residue reaches zero, and produces a
// digit string whose length depends on the scalar. The hardened
// pipeline below removes all three leaks:
//
//   - the partial reduction runs on fixed-width two's-complement words
//     with a Barrett reciprocal in place of big.Int division, so every
//     scalar takes the identical instruction and data-access sequence;
//   - the recoding loop runs exactly CTDigits iterations regardless of
//     the scalar, producing an all-zero tail once the residue is
//     exhausted;
//   - digit extraction, window-representative selection and the sign
//     handling are branchless: the α table is read in full every
//     iteration and the live entry selected with bitmasks.
//
// The price is a slightly weaker norm bound than Solinas' Routine 60:
// the constant-time rounding keeps only the per-coordinate nearest
// integer (|η_i| ≤ 1/2, so N(ρ) ≤ N(δ)) and skips the data-dependent
// lattice correction (which would tighten it to (4/7)·N(δ)). The digit
// string is therefore up to one digit longer, which CTDigits absorbs.
// The representative ρ can differ from PartMod's, but both are ≡ k
// (mod δ), so they multiply to the same point.

// CTDigits is the fixed digit-string length of the constant-time
// recoding: every RecodeCT call emits exactly this many digits,
// independent of the scalar. N(ρ) ≤ N(δ) = n ≈ 2^232 bounds the live
// prefix by ~log2 N(ρ) + w + a few digits; 250 leaves margin for every
// supported width (the tail pads with zeros).
const CTDigits = 250

// ctOffExp is the exponent of the positivity offset folded into the
// Barrett numerator: x = 2·num + den + 2^ctOffExp·(2·den) is positive
// for every |num| < 2^(ctOffExp+232), covering k < n times the ≤2^118
// conjugate coordinates with four bits to spare.
const ctOffExp = 120

// ct3 is a 192-bit two's-complement integer, least-significant word
// first. It carries the recoding residues (|r_i| ≤ 2^117-ish).
type ct3 [3]uint64

// ctConsts holds the public precomputed constants of the constant-time
// partial reduction, all derived from δ once.
type ctConsts struct {
	cA, cB       [2]uint64 // |conj(δ).A|, |conj(δ).B|
	cAneg, cBneg uint64    // all-ones masks: coordinate is negative
	dA, dB       [2]uint64 // |δ.A|, |δ.B|
	dAneg, dBneg uint64
	base         [6]uint64 // n + 2^(ctOffExp+1)·n: den + OFF·2den
	twoN         [6]uint64 // 2n, zero-extended
	rbar         [3]uint64 // floor(2^384 / 2n), the Barrett reciprocal
	off          [3]uint64 // 2^ctOffExp
}

var (
	ctOnce sync.Once
	ctK    ctConsts
)

// fillWords decodes |x| into little-endian 64-bit words. It panics if
// the magnitude does not fit, which for the δ-derived constants would
// be an initialisation bug, not a data-dependent path.
func fillWords(x *big.Int, dst []uint64) {
	buf := make([]byte, len(dst)*8)
	new(big.Int).Abs(x).FillBytes(buf)
	for i := range dst {
		var w uint64
		for j := 0; j < 8; j++ {
			w = w<<8 | uint64(buf[len(buf)-8*(i+1)+j])
		}
		dst[i] = w
	}
}

// negMask returns all-ones if x is negative.
func negMask(x *big.Int) uint64 {
	if x.Sign() < 0 {
		return ^uint64(0)
	}
	return 0
}

// ctInit computes the public reduction constants once.
func ctInit() {
	ctOnce.Do(func() {
		deltaInit()
		fillWords(deltaConj.A, ctK.cA[:])
		fillWords(deltaConj.B, ctK.cB[:])
		ctK.cAneg = negMask(deltaConj.A)
		ctK.cBneg = negMask(deltaConj.B)
		fillWords(deltaCached.A, ctK.dA[:])
		fillWords(deltaCached.B, ctK.dB[:])
		ctK.dAneg = negMask(deltaCached.A)
		ctK.dBneg = negMask(deltaCached.B)
		n := deltaNorm // N(δ) = group order
		twoN := new(big.Int).Lsh(n, 1)
		fillWords(twoN, ctK.twoN[:])
		base := new(big.Int).Lsh(twoN, ctOffExp)
		base.Add(base, n)
		fillWords(base, ctK.base[:])
		rbar := new(big.Int).Lsh(bigOne, 384)
		rbar.Div(rbar, twoN)
		fillWords(rbar, ctK.rbar[:])
		ctK.off[ctOffExp/64] = 1 << (ctOffExp % 64)
	})
}

// --- fixed-width word helpers (all constant-time: no branches, no
// secret-dependent indices; slice lengths are public constants) ---

// ctEqMask returns all-ones if a == b.
func ctEqMask(a, b uint64) uint64 {
	x := a ^ b
	return ((x | -x) >> 63) - 1
}

// ctAddN sets z = x + y (equal lengths, wrapping).
func ctAddN(z, x, y []uint64) {
	var c uint64
	for i := range z {
		s := x[i] + c
		c1 := b2u(s < c)
		z[i] = s + y[i]
		c = c1 | b2u(z[i] < s)
	}
}

// ctSubN sets z = x − y (equal lengths, wrapping) and returns the
// final borrow (1 if x < y as unsigned values).
func ctSubN(z, x, y []uint64) uint64 {
	var b uint64
	for i := range z {
		d := x[i] - y[i]
		b1 := b2u(x[i] < y[i])
		z[i] = d - b
		b = b1 | b2u(d < b)
	}
	return b
}

// b2u converts a comparison result to 0/1 without a branch (the
// compiler lowers this to a flag materialisation, not a jump).
func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// ctMulAcc accumulates z += x·y schoolbook; z must have
// len(x)+len(y) words and enough headroom that the final carry is
// absorbed (guaranteed when z starts zero).
func ctMulAcc(z, x, y []uint64) {
	for i, xi := range x {
		var c uint64
		for j, yj := range y {
			hi, lo := mul64(xi, yj)
			s := z[i+j] + lo
			c1 := b2u(s < lo)
			s2 := s + c
			c2 := b2u(s2 < s)
			z[i+j] = s2
			c = hi + c1 + c2
		}
		for k := i + len(y); k < len(z); k++ {
			s := z[k] + c
			c = b2u(s < c)
			z[k] = s
		}
	}
}

// mul64 is a 64×64→128 multiply (bits.Mul64 spelled locally so the
// helper list stays self-contained).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// ctNegCond conditionally negates z (two's complement) when mask is
// all-ones; mask must be 0 or all-ones.
func ctNegCond(z []uint64, mask uint64) {
	c := mask & 1
	for i := range z {
		v := (z[i] ^ mask) + c
		c = mask & 1 & b2u(v < c)
		z[i] = v
	}
}

// ctGeqMask returns all-ones if x ≥ y as unsigned values.
func ctGeqMask(x, y []uint64) uint64 {
	var t [8]uint64
	b := ctSubN(t[:len(x)], x, y)
	return b - 1 // borrow 0 → all-ones
}

// ctShl1 shifts z left by one bit in place.
func ctShl1(z []uint64) {
	var c uint64
	for i := range z {
		nc := z[i] >> 63
		z[i] = z[i]<<1 | c
		c = nc
	}
}

// --- ct3 two's-complement operations ---

func (x ct3) add(y ct3) (z ct3) { ctAddN(z[:], x[:], y[:]); return }
func (x ct3) sub(y ct3) (z ct3) { ctSubN(z[:], x[:], y[:]); return }

func (x ct3) neg() (z ct3) {
	var zero ct3
	ctSubN(z[:], zero[:], x[:])
	return
}

// asr1 arithmetically shifts x right by one bit.
func (x ct3) asr1() (z ct3) {
	z[0] = x[0]>>1 | x[1]<<63
	z[1] = x[1]>>1 | x[2]<<63
	z[2] = uint64(int64(x[2]) >> 1)
	return
}

// subInt64 subtracts a sign-extended small integer.
func (x ct3) subInt64(v int64) ct3 {
	s := uint64(v >> 63)
	return x.sub(ct3{uint64(v), s, s})
}

// abs returns |x| and the all-ones mask of x's sign.
func (x ct3) abs() (ct3, uint64) {
	m := uint64(int64(x[2]) >> 63)
	z := ct3{x[0] ^ m, x[1] ^ m, x[2] ^ m}
	return z.subInt64(int64(m)), m // z − (−1) = z + 1 when negative
}

// isZero reports x == 0 via a branch on the aggregated bit only (used
// after the fixed-length loop as a correctness assertion; the bit is
// identical for every valid input, so the branch is data-independent).
func (x ct3) isZero() bool { return x[0]|x[1]|x[2] == 0 }

// ctRoundDiv computes f = floor((2·num + den) / (2·den)) — the
// nearest integer to num/den with ties toward +∞, exactly
// roundNearest's rounding — in constant time, where num = ±k·c is the
// signed 6-word product of the scalar with a conjugate coordinate and
// den = N(δ) = n. The division runs as a Barrett multiply by
// rbar = floor(2^384/2n) on the offset-positive numerator
// x = 2·num + den + 2^ctOffExp·2den, followed by two masked
// correction subtractions (the Barrett estimate is at most one short),
// and the public offset is subtracted at the end.
func ctRoundDiv(num [6]uint64) (f ct3) {
	// x = base + 2·num (two's-complement wrap is exact: the true value
	// is in [0, 2^354)).
	x := num
	ctShl1(x[:])
	ctAddN(x[:], x[:], ctK.base[:])
	// q = floor(x·rbar / 2^384), then at most two corrections.
	var prod [9]uint64
	ctMulAcc(prod[:], x[:], ctK.rbar[:])
	q := ct3{prod[6], prod[7], prod[8]}
	// q·2n fits six words (q < 2^122, 2n < 2^234); the seventh product
	// word only absorbs ctMulAcc's transient carries.
	var t [7]uint64
	var r [6]uint64
	ctMulAcc(t[:], q[:], ctK.twoN[:4])
	ctSubN(r[:], x[:], t[:6])
	for i := 0; i < 2; i++ {
		m := ctGeqMask(r[:], ctK.twoN[:])
		var sub [6]uint64
		for j := range sub {
			sub[j] = ctK.twoN[j] & m
		}
		ctSubN(r[:], r[:], sub[:])
		q = q.subInt64(-int64(m & 1))
	}
	return q.sub(ct3(ctK.off))
}

// ctMulSigned returns the signed 5-word product of a 3-word
// two's-complement value with a 2-word magnitude whose sign mask is
// cneg.
func ctMulSigned(q ct3, c [2]uint64, cneg uint64) (p [5]uint64) {
	qa, qneg := q.abs()
	ctMulAcc(p[:], qa[:], c[:])
	ctNegCond(p[:], qneg^cneg)
	return
}

// partModCT partially reduces the scalar k (little-endian words,
// 0 ≤ k < n) modulo δ on fixed-width words: ρ = k − round(k·conj(δ)/n)·δ
// with per-coordinate nearest rounding, so N(ρ) ≤ N(δ) and ρ ≡ k (mod δ).
func partModCT(k [4]uint64) (r0, r1 ct3) {
	ctInit()
	// Exact quotient numerators num_i = k·conj(δ)_i over the common
	// denominator n.
	var numA, numB [6]uint64
	ctMulAcc(numA[:], k[:], ctK.cA[:])
	ctNegCond(numA[:], ctK.cAneg)
	ctMulAcc(numB[:], k[:], ctK.cB[:])
	ctNegCond(numB[:], ctK.cBneg)
	qa := ctRoundDiv(numA)
	qb := ctRoundDiv(numB)
	// r = k − q·δ expanded by τ² = µτ − 2 (µ = −1):
	//   re = qa·dA − 2·qb·dB,  im = qa·dB + qb·dA − qb·dB.
	t1 := ctMulSigned(qa, ctK.dA, ctK.dAneg)
	t2 := ctMulSigned(qb, ctK.dB, ctK.dBneg)
	t3 := ctMulSigned(qa, ctK.dB, ctK.dBneg)
	t4 := ctMulSigned(qb, ctK.dA, ctK.dAneg)
	var re, im, t2s [5]uint64
	t2s = t2
	ctShl1(t2s[:])
	ctSubN(re[:], t1[:], t2s[:])
	ctAddN(im[:], t3[:], t4[:])
	ctSubN(im[:], im[:], t2[:])
	var k5, r05 [5]uint64
	copy(k5[:], k[:])
	ctSubN(r05[:], k5[:], re[:])
	var zero [5]uint64
	ctSubN(im[:], zero[:], im[:])
	// |r_i| < 2^118, so truncating the two's-complement value to three
	// words is exact.
	r0 = ct3{r05[0], r05[1], r05[2]}
	r1 = ct3{im[0], im[1], im[2]}
	return
}

// recodeCT runs the fixed-length width-w TNAF digit loop on the
// residues: exactly len(digits) iterations, each performing the same
// instruction sequence — branchless digit extraction, a full masked
// scan of the α table, branchless sign handling and the τ division.
func recodeCT(r0, r1 ct3, w int, digits []int8) {
	alphaA, alphaB := alphaInt64(w)
	tw := uint64(TW(w))
	mask := uint64(1)<<w - 1
	for i := range digits {
		odd := -(r0[0] & 1) // all-ones if r0 is odd
		m := (r0[0] + r1[0]*tw) & mask
		// Symmetric residue mods 2^w, zeroed when r0 is even.
		d := int64(m) - int64((m>>(w-1))&1)<<w
		d &= int64(odd)
		sign := d >> 63
		ad := uint64((d ^ sign) - sign)
		idx := ad >> 1
		// Masked linear scan: every α entry is read every iteration.
		var sa, sb int64
		for j := range alphaA {
			em := int64(ctEqMask(uint64(j), idx))
			sa |= alphaA[j] & em
			sb |= alphaB[j] & em
		}
		// Apply the digit sign, and suppress the subtraction entirely
		// on even iterations (idx would otherwise select α_1).
		sa = ((sa ^ sign) - sign) & int64(odd)
		sb = ((sb ^ sign) - sign) & int64(odd)
		r0 = r0.subInt64(sa)
		r1 = r1.subInt64(sb)
		digits[i] = int8(d)
		// (r0, r1) ← (r0 + r1τ)/τ = (r1 + µ·r0/2, −r0/2) with µ = −1.
		half := r0.asr1()
		r0 = r1.sub(half)
		r1 = half.neg()
	}
	if !r0.isZero() || !r1.isZero() {
		// Fires only on a bound bug (CTDigits too short), never as a
		// function of a valid scalar: N(ρ) ≤ N(δ) makes every residue
		// reach zero well before the fixed length runs out.
		panic("koblitz: constant-time recoding residue not exhausted")
	}
}

// RecodeCT is the constant-time counterpart of Recode: partial
// reduction of k modulo δ and width-w TNAF recoding with no
// early-exit, no digit-value branches, and an output length
// (CTDigits) independent of the scalar. The caller must supply
// 0 ≤ k < n (the group order) and 3 ≤ w ≤ MaxW. The returned digits
// alias the Scratch and are valid until the next RecodeCT; the
// represented element is ≡ k (mod δ) but may differ from Recode's
// representative (both multiply to the same point).
func (s *Scratch) RecodeCT(k *big.Int, w int) []int8 {
	if w < 3 || w > MaxW {
		panic("koblitz: unsupported constant-time window width")
	}
	if k.Sign() < 0 || k.BitLen() > 232 {
		panic("koblitz: constant-time recoding scalar out of range")
	}
	if cap(s.digitsCT) < CTDigits {
		s.digitsCT = make([]int8, CTDigits)
	}
	s.digitsCT = s.digitsCT[:CTDigits]
	k.FillBytes(s.ctBuf[:30])
	var kw [4]uint64
	for i := range kw {
		for j := 0; j < 8; j++ {
			b := 30 - 8*i - 1 - j
			if b >= 0 {
				kw[i] |= uint64(s.ctBuf[b]) << (8 * j)
			}
		}
	}
	r0, r1 := partModCT(kw)
	recodeCT(r0, r1, w, s.digitsCT)
	for i := range kw {
		kw[i] = 0
	}
	return s.digitsCT
}
