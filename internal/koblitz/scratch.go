package koblitz

import (
	"fmt"
	"math/big"
)

// Scratch threads reusable recoding state through the τ-adic pipeline
// so the per-scalar-multiplication hot path stops allocating. A
// Scratch owns a small arena of big.Int temporaries plus a digit
// buffer; Recode runs partial reduction and width-w TNAF recoding
// entirely inside them, so after the first call (which grows the arena
// and the buffers to their steady-state sizes) a Recode performs zero
// heap allocations.
//
// A Scratch is NOT safe for concurrent use; give each goroutine its
// own (the batch engine keeps one per worker, core pools them). The
// digit slice returned by Recode aliases the Scratch and is only valid
// until the next call.
type Scratch struct {
	ints   []*big.Int
	next   int
	digits []int8
	// digitsW and digitsW2 are the int16 twin buffers of the
	// wide-window pipeline (RecodeWide/RecodeWideSecond), which
	// supports widths past int8's w = 8 for precomputed-table
	// consumers.
	digitsW  []int16
	digitsW2 []int16
	// digitsCT is the fixed-length buffer of the constant-time
	// recoding (RecodeCT) and ctBuf its scalar staging area; both
	// carry secrets and are zeroed by Wipe.
	digitsCT []int8
	ctBuf    [32]byte
}

// begin resets the arena for a fresh top-level recoding.
func (s *Scratch) begin() { s.next = 0 }

// grab returns the next arena big.Int, allocating only the first time
// each slot is used.
func (s *Scratch) grab() *big.Int {
	if s.next == len(s.ints) {
		s.ints = append(s.ints, new(big.Int))
	}
	v := s.ints[s.next]
	s.next++
	return v
}

// WipeInt zeroes v's storage — including capacity beyond the current
// word count, which can hold residue of earlier larger values — while
// keeping the array for reuse. This is THE scrub idiom for pooled
// big.Ints that have carried secrets (nonces, private scalars, their
// recoding residues); internal/core and internal/engine share it so a
// future hardening lands everywhere at once.
func WipeInt(v *big.Int) {
	bits := v.Bits()
	bits = bits[:cap(bits)]
	for i := range bits {
		bits[i] = 0
	}
	v.SetInt64(0)
}

// Wipe zeroes every value the Scratch retains — the arena integers
// (including capacity beyond their current word counts) and the digit
// buffer — while keeping the storage for reuse. The recoding of a
// secret scalar is invertible (Reconstruct recovers it), so callers
// that recode nonces or private keys wipe before the Scratch idles in
// a pool.
func (s *Scratch) Wipe() {
	for _, v := range s.ints {
		WipeInt(v)
	}
	for i := range s.ctBuf {
		s.ctBuf[i] = 0
	}
	for _, buf := range [][]int8{s.digits, s.digitsCT} {
		digits := buf[:cap(buf)]
		for i := range digits {
			digits[i] = 0
		}
	}
	for _, buf := range [][]int16{s.digitsW, s.digitsW2} {
		digits := buf[:cap(buf)]
		for i := range digits {
			digits[i] = 0
		}
	}
	s.next = 0
}

// Recode is the scratch-backed equivalent of
// WTNAF(PartMod(k), w): partial reduction of k modulo δ followed by
// width-w TNAF recoding. The returned digits alias the Scratch's
// buffer and are valid until the next Recode. The digit semantics are
// identical to WTNAF's (the differential test in scratch_test.go holds
// the two paths equal), only the allocation behavior differs.
func (s *Scratch) Recode(k *big.Int, w int) []int8 {
	if w < MinW || w > MaxW {
		panic(fmt.Sprintf("koblitz: unsupported window width %d", w))
	}
	s.begin()
	r0, r1 := s.partMod(k)
	s.digits = scratchRecode(s, r0, r1, w, s.digits[:0])
	return s.digits
}

// RecodeWide is Recode in the int16 digit representation, supporting
// widths up to MaxWide. Wide windows only pay for precomputed tables
// (the per-call α-table build grows as 2^w), so the consumers are the
// joint double-scalar verifier's generator table and per-key
// Precompute tables. The digits alias the Scratch's wide buffer and
// are valid until the next RecodeWide.
func (s *Scratch) RecodeWide(k *big.Int, w int) []int16 {
	if w < MinW || w > MaxWide {
		panic(fmt.Sprintf("koblitz: unsupported window width %d", w))
	}
	s.begin()
	r0, r1 := s.partMod(k)
	s.digitsW = scratchRecode(s, r0, r1, w, s.digitsW[:0])
	return s.digitsW
}

// RecodeWideSecond is RecodeWide writing into a second, independent
// wide digit buffer, so the joint double-scalar caller can hold both
// of its recodings at once. The returned digits stay valid across
// later RecodeWide calls — only the next RecodeWideSecond (or Wipe)
// invalidates them. The big.Int arena is shared, which is fine: digits
// are fully extracted before any later recoding runs.
func (s *Scratch) RecodeWideSecond(k *big.Int, w int) []int16 {
	s.digitsW, s.digitsW2 = s.digitsW2, s.digitsW
	d := s.RecodeWide(k, w)
	s.digitsW, s.digitsW2 = s.digitsW2, s.digitsW
	return d
}

// partMod reduces k modulo δ into arena integers: the scratch twin of
// PartMod/RoundDiv specialised to x = k + 0·τ and y = δ, with conj(δ)
// and N(δ) served from the package cache instead of being recomputed.
func (s *Scratch) partMod(k *big.Int) (r0, r1 *big.Int) {
	deltaInit()
	// x·conj(δ) = (k·cA, k·cB): the exact quotient's numerators over
	// the common denominator N(δ).
	num0 := s.grab().Mul(k, deltaConj.A)
	num1 := s.grab().Mul(k, deltaConj.B)
	qa, qb := s.roundLattice(num0, num1, deltaNorm)
	// r = k − q·δ with q·δ expanded by the Z[τ] product formula
	// (τ² = µτ − 2): re = qa·dA − 2·qb·dB, im = qa·dB + qb·dA + µ·qb·dB.
	re := s.grab().Mul(qa, deltaCached.A)
	t := s.grab().Mul(qb, deltaCached.B)
	im := s.grab().Mul(qa, deltaCached.B)
	t2 := s.grab().Mul(qb, deltaCached.A)
	im.Add(im, t2)
	if Mu < 0 {
		im.Sub(im, t)
	} else {
		im.Add(im, t)
	}
	re.Sub(re, t.Lsh(t, 1))
	r0 = re.Sub(k, re)
	r1 = im.Neg(im)
	return r0, r1
}

// roundNearest is the arena twin of the package-level roundNearest.
// The floor division runs as QuoRem on arena receivers (Div would
// allocate its internal remainder on every call).
func (s *Scratch) roundNearest(num, den *big.Int) (f, res *big.Int) {
	t := s.grab().Lsh(num, 1)
	t.Add(t, den)
	rem := s.grab()
	f, _ = s.grab().QuoRem(t, s.grab().Lsh(den, 1), rem)
	if rem.Sign() < 0 {
		// Truncated → floor for the positive divisor 2·den.
		f.Sub(f, bigOne)
	}
	res = s.grab().Mul(f, den)
	res.Sub(num, res)
	return f, res
}

// lowWord returns x mod 2^64 in two's complement (the value of the
// least-significant word adjusted for sign), without allocating. The
// recoding loops use it to extract digit residues mod 2^w directly
// instead of running big.Int divisions per digit.
func lowWord(x *big.Int) uint64 {
	var w uint64
	if b := x.Bits(); len(b) > 0 {
		w = uint64(b[0])
	}
	if x.Sign() < 0 {
		w = -w
	}
	return w
}

// roundLattice is the arena twin of the package-level roundLattice
// (Solinas Routine 60); the returned integers are arena-owned.
func (s *Scratch) roundLattice(num0, num1, den *big.Int) (q0, q1 *big.Int) {
	f0, e0 := s.roundNearest(num0, den)
	f1, e1 := s.roundNearest(num1, den)
	etaD := s.grab().Lsh(e0, 1)
	if Mu < 0 {
		etaD.Sub(etaD, e1)
	} else {
		etaD.Add(etaD, e1)
	}
	t1 := s.grab().SetInt64(3 * int64(Mu))
	t1.Mul(t1, e1)
	t1.Sub(e0, t1)
	t2 := s.grab().SetInt64(4 * int64(Mu))
	t2.Mul(t2, e1)
	t2.Add(e0, t2)
	negDen := s.grab().Neg(den)
	twoDen := s.grab().Lsh(den, 1)
	negTwoDen := s.grab().Neg(twoDen)

	h0, h1 := int64(0), int64(0)
	if etaD.Cmp(den) >= 0 {
		if t1.Cmp(negDen) < 0 {
			h1 = int64(Mu)
		} else {
			h0 = 1
		}
	} else {
		if t2.Cmp(twoDen) >= 0 {
			h1 = int64(Mu)
		}
	}
	if etaD.Cmp(negDen) < 0 {
		if t1.Cmp(den) >= 0 {
			h1 = -int64(Mu)
		} else {
			h0 = -1
		}
	} else {
		if t2.Cmp(negTwoDen) < 0 {
			h1 = -int64(Mu)
		}
	}
	q0 = f0.Add(f0, s.grab().SetInt64(h0))
	q1 = f1.Add(f1, s.grab().SetInt64(h1))
	return q0, q1
}

// scratchRecode runs the width dispatch shared by the int8 and int16
// pipelines (methods cannot be generic, hence the free function).
func scratchRecode[T Digit](s *Scratch, r0, r1 *big.Int, w int, digits []T) []T {
	if w == 2 {
		return scratchTNAF(s, r0, r1, digits)
	}
	return scratchWTNAF(s, r0, r1, w, digits)
}

// scratchTNAF is the arena twin of TNAF; r0 and r1 are consumed in
// place. The digit rule only depends on the residues mod 4, which
// lowWord serves without per-digit big.Int arithmetic.
func scratchTNAF[T Digit](s *Scratch, r0, r1 *big.Int, digits []T) []T {
	t := s.grab()
	half := s.grab()
	for r0.Sign() != 0 || r1.Sign() != 0 {
		if r0.BitLen() <= smallBits && r1.BitLen() <= smallBits {
			return tnafSmall(r0.Int64(), r1.Int64(), digits)
		}
		if len(digits) > maxDigits {
			panic("koblitz: TNAF did not terminate")
		}
		var u int64
		if r0.Bit(0) == 1 {
			// u = 2 − ((r0 − 2r1) mod 4) ∈ {1, −1}.
			m := (lowWord(r0) - 2*lowWord(r1)) & 3
			u = 2 - int64(m)
			r0.Sub(r0, t.SetInt64(u))
		}
		digits = append(digits, T(u))
		divTauInPlace(r0, r1, half)
	}
	return digits
}

// scratchWTNAF is the arena twin of WTNAF for w >= 3; r0 and r1 are
// consumed in place.
func scratchWTNAF[T Digit](s *Scratch, r0, r1 *big.Int, w int, digits []T) []T {
	alphaA, alphaB := alphaInt64(w)
	twi := TW(w)
	mask := uint64(1)<<w - 1
	halfW := uint64(1) << (w - 1)

	tmp := s.grab()
	half := s.grab()
	for r0.Sign() != 0 || r1.Sign() != 0 {
		if r0.BitLen() <= smallBits && r1.BitLen() <= smallBits {
			return wtnafSmall(r0.Int64(), r1.Int64(), w, twi, alphaA, alphaB, digits)
		}
		if len(digits) > maxDigits {
			panic("koblitz: WTNAF did not terminate")
		}
		var u int64
		if r0.Bit(0) == 1 {
			// u = (r0 + r1·t_w) mods 2^w — the odd symmetric residue,
			// extracted from the low words (the masked unsigned
			// arithmetic is exact mod 2^w regardless of signs).
			m := (lowWord(r0) + lowWord(r1)*uint64(twi)) & mask
			if m >= halfW {
				u = int64(m) - int64(1)<<w
			} else {
				u = int64(m)
			}
			if u > 0 {
				r0.Sub(r0, tmp.SetInt64(alphaA[u>>1]))
				r1.Sub(r1, tmp.SetInt64(alphaB[u>>1]))
			} else {
				r0.Add(r0, tmp.SetInt64(alphaA[(-u)>>1]))
				r1.Add(r1, tmp.SetInt64(alphaB[(-u)>>1]))
			}
		}
		digits = append(digits, T(u))
		divTauInPlace(r0, r1, half)
	}
	return digits
}

// bigOne is the shared, never-written constant 1.
var bigOne = big.NewInt(1)

// AlphaCoeffs returns the cached int64 coordinates of the width-w
// window representatives: AlphaCoeffs(w) = (a, b) with
// α_(2i+1) = a[i] + b[i]·τ. The slices are shared and immutable —
// callers must not write them. This is the table the 64-bit-native
// alpha-point construction in internal/core ladders over without
// touching big.Int.
func AlphaCoeffs(w int) (alphaA, alphaB []int64) {
	return alphaInt64(w)
}
