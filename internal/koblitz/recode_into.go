package koblitz

import (
	"fmt"
	"math/big"
)

// Caller-buffer recodings for the cross-batch multi-scalar evaluator
// (internal/core/multiscalar.go), which needs MANY digit strings live
// at once — one per aggregated term — where the Scratch's own
// twin-buffer pipeline (RecodeWide/RecodeWideSecond) can hold only two.
// The reduction and the digit loop keep their state on the stack, so
// these calls use no Scratch storage at all; they stay methods so the
// evaluator recodes through one value.

// RecodeInto is RecodeWide writing into a caller-provided digit buffer:
// partial reduction of k modulo δ followed by width-w TNAF recoding,
// appended to buf[:0] (grown only when capacity is insufficient, so a
// retained buffer makes the call allocation-free in steady state). The
// returned digits do NOT alias the Scratch and stay valid across later
// recodings on it.
func (s *Scratch) RecodeInto(k *big.Int, w int, buf []int16) []int16 {
	if w < MinW || w > MaxWide {
		panic(fmt.Sprintf("koblitz: unsupported window width %d", w))
	}
	r0, r1 := reduce(k)
	return recode(r0, r1, w, buf[:0])
}

// RecodeIntInto recodes the plain non-negative integer k — WITHOUT the
// partial reduction modulo δ — into a width-w TNAF, appended to
// buf[:0]. The digit string evaluates to exactly k in Z[τ], so
// evaluating it against a point P yields the exact integer multiple
// k·P for ANY point of E(F_2^m), including points outside the
// prime-order subgroup (partial reduction is only an identity on the
// subgroup). This is what makes it safe for the linear-combination
// batch verifier, whose recovered R points are attacker-influenced and
// carry no subgroup guarantee. A b-bit k recodes to ~2b digits (the
// norm k² shrinks by one bit per τ division), so small weights stay
// cheap: a 63-bit weight is ~126 digits against the ~m+a of a reduced
// scalar.
func (s *Scratch) RecodeIntInto(k uint64, w int, buf []int16) []int16 {
	if w < MinW || w > MaxWide {
		panic(fmt.Sprintf("koblitz: unsupported window width %d", w))
	}
	return recode(i128{lo: k}, i128{}, w, buf[:0])
}
