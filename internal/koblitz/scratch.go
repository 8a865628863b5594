package koblitz

import (
	"fmt"
	"math/big"
)

// Scratch holds the digit buffers of the fast τ-adic pipeline so the
// per-scalar-multiplication hot path stops allocating. Recode reduces
// k modulo δ on fixed-width words (partModWords) and recodes the
// two-word residues in one digit loop (recode); nothing but the digit
// strings outlives a call, so after the first call (which grows the
// buffers to their steady-state sizes) a Recode performs zero heap
// allocations. Scalars 0 ≤ k < 2^fastBits — every reduced scalar the
// library recodes — stay on words; any other big.Int is reduced by the
// reference PartMod, which allocates, and then enters the same digit
// loop. The zero value is ready to use.
//
// A Scratch is NOT safe for concurrent use; give each goroutine its
// own (the batch engine keeps one per worker, core pools them). The
// digit slice returned by Recode aliases the Scratch and is only valid
// until the next call.
type Scratch struct {
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

// Wipe zeroes every digit buffer the Scratch retains (including
// capacity beyond the current lengths) and the constant-time staging
// bytes, while keeping the storage for reuse. The recoding of a secret
// scalar is invertible (Reconstruct recovers it), so callers that
// recode nonces or private keys wipe before the Scratch idles in a
// pool.
func (s *Scratch) Wipe() {
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
}

// Recode is the scratch-backed equivalent of
// WTNAF(PartMod(k), w): partial reduction of k modulo δ followed by
// width-w TNAF recoding. The returned digits alias the Scratch's
// buffer and are valid until the next Recode. The digit semantics are
// identical to WTNAF's (the differential tests in scratch_test.go and
// FuzzRecodeVsReference hold the two paths equal), only the cost
// differs.
func (s *Scratch) Recode(k *big.Int, w int) []int8 {
	if w < MinW || w > MaxW {
		panic(fmt.Sprintf("koblitz: unsupported window width %d", w))
	}
	r0, r1 := reduce(k)
	s.digits = recode(r0, r1, w, s.digits[:0])
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
	r0, r1 := reduce(k)
	s.digitsW = recode(r0, r1, w, s.digitsW[:0])
	return s.digitsW
}

// RecodeWideSecond is RecodeWide writing into a second, independent
// wide digit buffer, so the joint double-scalar caller can hold both
// of its recodings at once. The returned digits stay valid across
// later RecodeWide calls — only the next RecodeWideSecond (or Wipe)
// invalidates them.
func (s *Scratch) RecodeWideSecond(k *big.Int, w int) []int16 {
	s.digitsW, s.digitsW2 = s.digitsW2, s.digitsW
	d := s.RecodeWide(k, w)
	s.digitsW, s.digitsW2 = s.digitsW2, s.digitsW
	return d
}

// fastBits bounds the scalars reduced on words: below 2^fastBits the
// Barrett numerator of ctRoundDiv stays positive and its quotient fits
// two words. Every scalar the library recodes is reduced mod n < 2^232.
const fastBits = 233

// reduce returns PartMod(k)'s coordinates as two-word residues: on
// fixed-width words for 0 ≤ k < 2^fastBits, through the reference
// PartMod for any other k. Both coordinates of a partially reduced
// scalar are below 2^117, whatever k was.
func reduce(k *big.Int) (r0, r1 i128) {
	if k.Sign() >= 0 && k.BitLen() <= fastBits {
		var kw [4]uint64
		loadWords(kw[:], k)
		return partModWords(kw)
	}
	rho := PartMod(k)
	return i128FromBig(rho.A), i128FromBig(rho.B)
}

// partModWords is PartMod on fixed-width words: the constant-time
// per-coordinate rounding of partModCT followed by Solinas' Routine 60
// lattice correction, so the representative is exactly PartMod(k)'s
// and N(ρ) ≤ (4/7)·N(δ). The caller supplies 0 ≤ k < 2^fastBits.
func partModWords(k [4]uint64) (r0, r1 i128) {
	ctInit()
	numA, numB := ctNumerators(k)
	fa, ra := ctRoundDiv(numA)
	fb, rb := ctRoundDiv(numB)
	h0, h1 := latticeCorrection(ra, rb)
	return ctResidue(k, fa.add(i128From(h0)), fb.add(i128From(h1)))
}

// latticeCorrection is roundLattice's data-dependent step on words
// (µ = −1). ra and rb are ctRoundDiv's remainders, from which the
// rounding residues over the denominator n are e_i = (r_i − n)/2 with
// |e_i| ≤ n/2; it returns the (h0, h1) that roundLattice adds to the
// per-coordinate rounding. Every compared quantity is below 3n < 2^234
// in magnitude, so four-word two's complement holds it exactly.
func latticeCorrection(ra, rb [4]uint64) (h0, h1 int64) {
	e0, e1 := halfResidue(ra), halfResidue(rb)
	e1x2 := add4(e1, e1)
	eta := sub4(add4(e0, e0), e1)    // η·n = (2η0 + µη1)·n
	t1 := add4(add4(e0, e1x2), e1)   // (η0 − 3µη1)·n
	t2 := sub4(e0, add4(e1x2, e1x2)) // (η0 + 4µη1)·n
	n, twoN := ctK.n, ctK.twoN
	negN, negTwoN := sub4([4]uint64{}, n), sub4([4]uint64{}, twoN)
	if !less4(eta, n) {
		if less4(t1, negN) {
			h1 = Mu
		} else {
			h0 = 1
		}
	} else if !less4(t2, twoN) {
		h1 = Mu
	}
	if less4(eta, negN) {
		if !less4(t1, n) {
			h1 = -Mu
		} else {
			h0 = -1
		}
	} else if less4(t2, negTwoN) {
		h1 = -Mu
	}
	return h0, h1
}

// halfResidue returns (r − n)/2, exact because r and n are both odd.
func halfResidue(r [4]uint64) [4]uint64 {
	d := sub4(r, ctK.n)
	return [4]uint64{
		d[0]>>1 | d[1]<<63,
		d[1]>>1 | d[2]<<63,
		d[2]>>1 | d[3]<<63,
		uint64(int64(d[3]) >> 1),
	}
}

func add4(x, y [4]uint64) (z [4]uint64) { ctAddN(z[:], x[:], y[:]); return }
func sub4(x, y [4]uint64) (z [4]uint64) { ctSubN(z[:], x[:], y[:]); return }

// less4 reports x < y for four-word two's-complement values whose
// difference does not overflow.
func less4(x, y [4]uint64) bool { return int64(sub4(x, y)[3]) < 0 }

// small reports |x| < 2^smallBits (big.Int's BitLen(x) ≤ smallBits):
// once both residues are small the digit loop hands off to the int64
// tail.
func (x i128) small() bool {
	v := int64(x.lo)
	return x.hi == uint64(v>>63) && v > -1<<smallBits && v < 1<<smallBits
}

// recode appends the width-w TNAF of r0 + r1·τ to digits: WTNAF's
// big.Int loop ported to two-word residues, handing off to the int64
// tail once both fit it. It serves w = 2 as well: there t_2 = 2 and
// α_1 = 1, so the window digit (r0 + 2r1) mods 4 is TNAF's
// 2 − ((r0 − 2r1) mod 4) and the digit strings coincide.
func recode[T Digit](r0, r1 i128, w int, digits []T) []T {
	alphaA, alphaB, tw := alphaInt64(w)
	mask := uint64(1)<<w - 1
	halfW := uint64(1) << (w - 1)
	for !r0.small() || !r1.small() {
		if len(digits) > maxDigits {
			panic("koblitz: WTNAF did not terminate")
		}
		var u int64
		if r0.lo&1 == 1 {
			// u = (r0 + r1·t_w) mods 2^w — the odd symmetric residue,
			// read from the low words (the masked unsigned arithmetic
			// is exact mod 2^w regardless of signs).
			m := (r0.lo + r1.lo*uint64(tw)) & mask
			u = int64(m)
			if m >= halfW {
				u -= 1 << w
			}
			if u > 0 {
				r0 = r0.sub(i128From(alphaA[u>>1]))
				r1 = r1.sub(i128From(alphaB[u>>1]))
			} else {
				r0 = r0.add(i128From(alphaA[(-u)>>1]))
				r1 = r1.add(i128From(alphaB[(-u)>>1]))
			}
		}
		digits = append(digits, T(u))
		// (r0, r1) ← (r0 + r1τ)/τ = (r1 + µ·r0/2, −r0/2) with µ = −1.
		half := r0.asr1()
		r0, r1 = r1.sub(half), half.neg()
	}
	return wtnafSmall(int64(r0.lo), int64(r1.lo), w, tw, alphaA, alphaB, digits)
}

// AlphaCoeffs returns the cached int64 coordinates of the width-w
// window representatives: AlphaCoeffs(w) = (a, b) with
// α_(2i+1) = a[i] + b[i]·τ. The slices are shared and immutable —
// callers must not write them. This is the table the 64-bit-native
// alpha-point construction in internal/core ladders over without
// touching big.Int.
func AlphaCoeffs(w int) (alphaA, alphaB []int64) {
	alphaA, alphaB, _ = alphaInt64(w)
	return alphaA, alphaB
}
