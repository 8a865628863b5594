package koblitz

import (
	"math/big"
	"math/bits"
	"sync"
)

// ctrecode.go — partial reduction modulo δ on fixed-width words, the
// first stage of every fast recoding (partModWords in scratch.go).
//
// The quotient k/δ = k·conj(δ)/N(δ) is rounded per coordinate on
// fixed-width two's-complement words, with a Barrett reciprocal in
// place of big.Int division (ctNumerators, ctRoundDiv), and the residue
// ρ = k − q·δ is formed on two-word integers (ctResidue). These steps
// run the same instruction sequence for every scalar, hence the ct
// prefix; partModWords then applies Solinas' data-dependent lattice
// correction, so its ρ is exactly PartMod's.
//
// The word arithmetic is math/bits' Add64, Sub64 and Mul64 and plain
// 64-bit multiplication.

// ctOffExp is the exponent of the positivity offset folded into the
// Barrett numerator: x = 2·num + den + 2^ctOffExp·(2·den) is positive
// for every |num| < 2^(ctOffExp+231) (den = n > 2^231), covering
// k < 2^233 times the < 2^116 conjugate coordinates with two bits to
// spare.
const ctOffExp = 120

// i128 is a 128-bit two's-complement integer. It carries the recoding
// residues (|r_i| < 2^117, see partModWords) and the rounded quotients
// of the partial reduction. Go keeps a two-field
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
