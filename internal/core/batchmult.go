package core

import (
	"math/big"

	"repro/internal/ec"
)

// ScalarMultBatchLD64 computes dst[i] = ks[i]·ps[i] for every i,
// leaving each result projective for the caller's batch-wide
// LD→affine inversion — the multi-point twin of ScalarMultLD64.
//
// The point of the batched form is the table construction: a
// single-point build pays two field inversions for its width-w α
// table (one normalising the multiples j·P, one shared by the table's
// additions; see alphaTables). Here both run batch-wide — the
// multiples of ALL points share one inversion and the additions of
// ALL tables share another — so a batch of n multiplications performs
// 2 table inversions total instead of 2n, on top of the
// final-conversion inversion the caller amortises. The ladders
// themselves are unchanged (same recoding, same α tables, same
// Frobenius-and-add loop), so results are bit-identical to
// ScalarMultLD64.
//
// Semantics per element match ScalarMultLD64: ps[i] must lie in the
// prime-order subgroup; ps[i].Inf or ks[i] = 0 yields infinity. Like
// every Scratch method it is not safe for concurrent use, and the
// recoding buffer retains the LAST scalar's digits — callers running
// secret scalars wipe the scratch afterwards, exactly as for the
// single-point ladders.
func (s *Scratch) ScalarMultBatchLD64(dst []ec.LD64, ks []*big.Int, ps []ec.Affine) {
	n := len(ps)
	if len(ks) != n || len(dst) != n {
		panic("core: ScalarMultBatchLD64 length mismatch")
	}
	p64 := Grow(&s.bp, n)
	for i := range ps {
		p64[i] = ps[i].To64()
		if ks[i].Sign() == 0 {
			p64[i] = ec.Affine64{Inf: true}
		}
	}
	// Every point's α table at once: two inversions for the batch.
	tab := s.alphaTables(&s.btab, p64, WRandom)
	const tw = 1 << (WRandom - 2)
	for i := 0; i < n; i++ {
		if p64[i].Inf {
			dst[i] = ec.LD64Infinity
			continue
		}
		digits := s.rec.Recode(ks[i], WRandom)
		dst[i] = scalarMultDigits64(digits, tab[tw*i:tw*(i+1)])
	}
}
