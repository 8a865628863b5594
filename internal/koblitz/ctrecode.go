package koblitz

import (
	"math/big"
	"math/bits"
	"sync"
)

// ctrecode.go — fixed-width partial reduction, and the constant-time
// fixed-length width-w TNAF recoding of the hardened signing path.
//
// Both recodings reduce on the words below. The fast pipeline
// (scratch.go) adds Solinas' data-dependent lattice correction to the
// shared rounding and then runs a digit loop that branches on digit
// values and stops when the residue is exhausted. The hardened
// pipeline removes the three leaks that leaves:
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
//
// The word arithmetic is math/bits' Add64, Sub64 and Mul64, which Go
// documents as constant-time, and plain 64-bit multiplication.

// CTDigits is the fixed digit-string length of the constant-time
// recoding: every RecodeCT call emits exactly this many digits,
// independent of the scalar. N(ρ) ≤ N(δ) = n ≈ 2^232 bounds the live
// prefix by ~log2 N(ρ) + w + a few digits; 250 leaves margin for every
// supported width (the tail pads with zeros).
const CTDigits = 250

// ctOffExp is the exponent of the positivity offset folded into the
// Barrett numerator: x = 2·num + den + 2^ctOffExp·(2·den) is positive
// for every |num| < 2^(ctOffExp+231) (den = n > 2^231), covering
// k < 2^233 times the < 2^116 conjugate coordinates with two bits to
// spare.
const ctOffExp = 120

// i128 is a 128-bit two's-complement integer. It carries the recoding
// residues of both pipelines (|r_i| < 2^117, see partModCT) and the
// rounded quotients of the partial reduction. Go keeps a two-field
// struct in registers through the digit loops, where it spills an
// array.
type i128 struct{ lo, hi uint64 }

// i128From sign-extends v.
func i128From(v int64) i128 { return i128{uint64(v), uint64(v >> 63)} }

func (x i128) add(y i128) i128 {
	lo, c := bits.Add64(x.lo, y.lo, 0)
	hi, _ := bits.Add64(x.hi, y.hi, c)
	return i128{lo, hi}
}

func (x i128) sub(y i128) i128 {
	lo, b := bits.Sub64(x.lo, y.lo, 0)
	hi, _ := bits.Sub64(x.hi, y.hi, b)
	return i128{lo, hi}
}

func (x i128) neg() i128 { return i128{}.sub(x) }

// mul returns x·y mod 2^128, which is the two's-complement product
// whenever the true product fits.
func (x i128) mul(y i128) i128 {
	hi, lo := bits.Mul64(x.lo, y.lo)
	return i128{lo, hi + x.lo*y.hi + x.hi*y.lo}
}

// asr1 arithmetically shifts x right by one bit.
func (x i128) asr1() i128 {
	return i128{x.lo>>1 | x.hi<<63, uint64(int64(x.hi) >> 1)}
}

// isZero reports x == 0 via a branch on the aggregated bit only (used
// after the fixed-length loop as a correctness assertion; the bit is
// identical for every valid input, so the branch is data-independent).
func (x i128) isZero() bool { return x.lo|x.hi == 0 }

// ctConsts holds the public precomputed constants of the fixed-width
// partial reduction, all derived from δ once.
type ctConsts struct {
	cA, cB       [2]uint64 // |conj(δ).A|, |conj(δ).B|
	cAneg, cBneg uint64    // all-ones masks: coordinate is negative
	dA, dB       i128      // δ.A, δ.B
	base         [6]uint64 // n + 2^(ctOffExp+1)·n: den + OFF·2den
	n, twoN      [4]uint64 // n and 2n
	rbar         [3]uint64 // floor(2^384 / 2n), the Barrett reciprocal
	off          i128      // 2^ctOffExp
}

var (
	ctOnce sync.Once
	ctK    ctConsts
)

// loadWords ORs |x| into the little-endian 64-bit words dst, which the
// caller zeroes. It reads x's words in place, so it never allocates;
// a magnitude wider than dst panics on the index.
func loadWords(dst []uint64, x *big.Int) {
	for i, d := range x.Bits() {
		if bits.UintSize == 32 {
			dst[i/2] |= uint64(d) << (32 * (i % 2))
		} else {
			dst[i] = uint64(d)
		}
	}
}

// i128FromBig converts x, which must satisfy |x| < 2^127.
func i128FromBig(x *big.Int) i128 {
	var w [2]uint64
	loadWords(w[:], x)
	z := i128{w[0], w[1]}
	if x.Sign() < 0 {
		z = z.neg()
	}
	return z
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
		loadWords(ctK.cA[:], deltaConj.A)
		loadWords(ctK.cB[:], deltaConj.B)
		ctK.cAneg = negMask(deltaConj.A)
		ctK.cBneg = negMask(deltaConj.B)
		ctK.dA = i128FromBig(deltaCached.A)
		ctK.dB = i128FromBig(deltaCached.B)
		n := deltaNorm // N(δ) = group order
		twoN := new(big.Int).Lsh(n, 1)
		loadWords(ctK.n[:], n)
		loadWords(ctK.twoN[:], twoN)
		base := new(big.Int).Lsh(twoN, ctOffExp)
		base.Add(base, n)
		loadWords(ctK.base[:], base)
		rbar := new(big.Int).Lsh(big.NewInt(1), 384)
		rbar.Div(rbar, twoN)
		loadWords(ctK.rbar[:], rbar)
		ctK.off.hi = 1 << (ctOffExp - 64)
	})
}

// --- fixed-width word helpers (all constant-time: no branches, no
// secret-dependent indices; slice lengths are public constants) ---

// ctAddN sets z = x + y (equal lengths, wrapping).
func ctAddN(z, x, y []uint64) {
	var c uint64
	for i := range z {
		z[i], c = bits.Add64(x[i], y[i], c)
	}
}

// ctSubN sets z = x − y (equal lengths, wrapping) and returns the
// final borrow (1 if x < y as unsigned values).
func ctSubN(z, x, y []uint64) uint64 {
	var b uint64
	for i := range z {
		z[i], b = bits.Sub64(x[i], y[i], b)
	}
	return b
}

// ctMul sets z = x·y schoolbook; z must be zero and have
// len(x)+len(y) words.
func ctMul(z, x, y []uint64) {
	for i, xi := range x {
		var c uint64
		for j, yj := range y {
			hi, lo := bits.Mul64(xi, yj)
			var cc uint64
			lo, cc = bits.Add64(lo, z[i+j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			z[i+j], c = lo, hi+cc
		}
		z[i+len(y)] = c
	}
}

// ctNegCond conditionally negates z (two's complement) when mask is
// all-ones; mask must be 0 or all-ones.
func ctNegCond(z []uint64, mask uint64) {
	c := mask & 1
	for i := range z {
		z[i], c = bits.Add64(z[i]^mask, 0, c)
	}
}

// ctShl1 shifts z left by one bit in place.
func ctShl1(z []uint64) {
	var c uint64
	for i := range z {
		z[i], c = z[i]<<1|c, z[i]>>63
	}
}

// ctNumerators returns the exact quotient numerators
// num_i = k·conj(δ)_i of k/δ over the common denominator n, as signed
// 6-word values.
func ctNumerators(k [4]uint64) (numA, numB [6]uint64) {
	ctMul(numA[:], k[:], ctK.cA[:])
	ctNegCond(numA[:], ctK.cAneg)
	ctMul(numB[:], k[:], ctK.cB[:])
	ctNegCond(numB[:], ctK.cBneg)
	return
}

// ctRoundDiv computes f = floor((2·num + den) / (2·den)) — the
// nearest integer to num/den with ties toward +∞, exactly
// roundNearest's rounding — in constant time, where num = ±k·c is the
// signed 6-word product of the scalar with a conjugate coordinate and
// den = N(δ) = n. The division runs as a Barrett multiply by
// rbar = floor(2^384/2n) on the offset-positive numerator
// x = 2·num + den + 2^ctOffExp·2den, followed by two masked
// correction subtractions (the Barrett estimate is at most one short),
// and the public offset is subtracted at the end.
//
// It also returns the division's remainder r = x − (f + 2^ctOffExp)·2n
// ∈ [0, 2n), from which roundNearest's residue num − f·n is (r − n)/2.
func ctRoundDiv(num [6]uint64) (f i128, r [4]uint64) {
	// x = base + 2·num (two's-complement wrap is exact: the true value
	// is in [0, 2^354)).
	x := num
	ctShl1(x[:])
	ctAddN(x[:], x[:], ctK.base[:])
	// q = floor(x·rbar / 2^384) < 2^122, then at most two corrections.
	var prod [9]uint64
	ctMul(prod[:], x[:], ctK.rbar[:])
	q := i128{prod[6], prod[7]}
	// The remainder is below 3·2n < 2^236, so its low four words are
	// exact.
	qw := [2]uint64{q.lo, q.hi}
	var t [6]uint64
	ctMul(t[:], qw[:], ctK.twoN[:])
	ctSubN(r[:], x[:4], t[:4])
	for i := 0; i < 2; i++ {
		var d [4]uint64
		m := ctSubN(d[:], r[:], ctK.twoN[:]) - 1 // all-ones: r ≥ 2n
		for j := range r {
			r[j] ^= (r[j] ^ d[j]) & m
		}
		q = q.add(i128{m & 1, 0})
	}
	return q.sub(ctK.off), r
}

// ctResidue returns ρ = k − (qa + qb·τ)·δ, expanded by τ² = µτ − 2
// (µ = −1):
//
//	re = qa·dA − 2·qb·dB,  im = qa·dB + qb·dA − qb·dB,  ρ = (k − re, −im).
//
// Every product runs mod 2^128: the residue coordinates are below
// 2^117, so the wrapped two's-complement result is exact.
func ctResidue(k [4]uint64, qa, qb i128) (r0, r1 i128) {
	qbdB := qb.mul(ctK.dB)
	re := qa.mul(ctK.dA).sub(qbdB.add(qbdB))
	im := qa.mul(ctK.dB).add(qb.mul(ctK.dA)).sub(qbdB)
	return i128{k[0], k[1]}.sub(re), im.neg()
}

// partModCT partially reduces the scalar k (little-endian words,
// 0 ≤ k < n) modulo δ on fixed-width words: ρ = k − round(k·conj(δ)/n)·δ
// with per-coordinate nearest rounding, so N(ρ) ≤ N(δ) and ρ ≡ k (mod δ).
// N(ρ) ≤ N(δ) puts both coordinates of ρ below 2^117.
func partModCT(k [4]uint64) (r0, r1 i128) {
	ctInit()
	numA, numB := ctNumerators(k)
	qa, _ := ctRoundDiv(numA)
	qb, _ := ctRoundDiv(numB)
	return ctResidue(k, qa, qb)
}

// ctEqMask returns all-ones if a == b.
func ctEqMask(a, b uint64) uint64 {
	x := a ^ b
	return ((x | -x) >> 63) - 1
}

// recodeCT runs the fixed-length width-w TNAF digit loop on the
// residues: exactly len(digits) iterations, each performing the same
// instruction sequence — branchless digit extraction, a full masked
// scan of the α table, branchless sign handling and the τ division.
func recodeCT(r0, r1 i128, w int, digits []int8) {
	alphaA, alphaB, twi := alphaInt64(w)
	tw := uint64(twi)
	mask := uint64(1)<<w - 1
	for i := range digits {
		odd := -(r0.lo & 1) // all-ones if r0 is odd
		m := (r0.lo + r1.lo*tw) & mask
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
		r0 = r0.sub(i128From(sa))
		r1 = r1.sub(i128From(sb))
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
