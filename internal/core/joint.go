package core

import (
	"math/big"

	"repro/internal/ec"
)

// Joint double-scalar multiplication u1·G + u2·Q — the ECDSA
// verification workload — as a single Shamir/Straus-interleaved τ-adic
// ladder. The seed verifier ran the two multiplications disjointly:
// two Frobenius/double main loops, two α-table normalisations, two
// LD→affine inversions and an affine addition (one more inversion).
// Interleaving consumes BOTH recodings inside one shared Frobenius
// loop — the τ maps are paid once, for the longer of the two digit
// strings — and the accumulator stays projective until exactly one
// final inversion.
//
//   - the u1 side runs on the frozen width-WJoint α-table of the
//     generator from the shared registry (registry.go), so it costs
//     only its recoding and ~m/(WJoint+1) mixed additions — the wide
//     int16 digit pipeline (koblitz.RecodeWide) makes widths past 8
//     reachable, and for the generator the 2^(WJoint-2)-point table is
//     built exactly once;
//   - the u2 side recodes at width WRandom over a per-call α-table of
//     Q built natively in the 64-bit representation (Scratch), or — on
//     the precomputed path — over a caller-held FixedBase table of any
//     width up to MaxWide, which drops both the per-call table build
//     and a chunk of the Q-side additions.
//
// Each side's recoding — partial reduction on fixed-width words and a
// digit loop on two-word residues — takes ~2 µs at any width (koblitz
// BenchmarkRecode, 2-vCPU Xeon VM), so the pair is about a tenth of a
// verification over a precomputed table (34–38 µs with lazy τ, root
// BenchmarkVerify/joint, same machine).
//
// Both sides use the same partial-reduction recoding as the disjoint
// paths, so for any on-curve Q the result is bit-identical to
// ScalarBaseMult(u1) + ScalarMult(u2, Q) (the differential fuzz target
// FuzzJointScalarMultVsSeparate pins this down), and the subgroup
// contract is inherited unchanged: exact u1·G + u2·Q is only
// guaranteed for Q in the prime-order subgroup.

// WJoint is the wTNAF width of the registry's generator table on the
// joint path. The 1024-point table (72 KiB, 64-bit only) takes
// ~0.4 ms to build, about six kP (BenchmarkAlphaTable, 2-vCPU Xeon
// VM), so it is built once per process, leaving only the digit
// density: ~m/13 additions instead of the w=4 path's ~m/5.
const WJoint = 12

// WPrecomp is the default wTNAF width of per-key verification tables
// (PublicKey.Precompute in the root package): 256 points, 18 KiB per
// key (64-bit only), built in ~0.12 ms — sized for keys that verify
// more than a handful of signatures. One step wider doubles the
// memory for ~3% fewer additions; one narrower saves half the memory
// for ~6% more.
const WPrecomp = 10

// jointLD64 is the shared interleaved Horner loop: one τ per digit
// position, one mixed addition per nonzero digit of either string. As
// in scalarMultDigits64 the τ's are lazy — counted across positions
// where both strings read zero and applied in one FrobeniusN before the
// next addition and at the end — so the result is the eager loop's,
// coordinate for coordinate. Digit slices may be nil (a zero scalar
// contributes nothing); tables are indexed table[d>>1] as everywhere
// else.
func jointLD64(d1 []int16, t1 []ec.Affine64, d2 []int16, t2 []ec.Affine64) ec.LD64 {
	q := ec.LD64Infinity
	k := 0 // τ's owed to q
	for i := max(len(d1), len(d2)) - 1; i >= 0; i-- {
		k++
		var a, b int16
		if i < len(d1) {
			a = d1[i]
		}
		if i < len(d2) {
			b = d2[i]
		}
		if a == 0 && b == 0 {
			continue
		}
		q.FrobeniusN(k)
		k = 0
		switch {
		case a > 0:
			q.AddMixed(&t1[a>>1])
		case a < 0:
			q.SubMixed(&t1[(-a)>>1])
		}
		switch {
		case b > 0:
			q.AddMixed(&t2[b>>1])
		case b < 0:
			q.SubMixed(&t2[(-b)>>1])
		}
	}
	q.FrobeniusN(k)
	return q
}

// JointScalarMultLD64 computes u1·G + u2·Q on this Scratch, left
// projective so a batch caller can amortise the final inversion across
// requests. Q must lie in the prime-order subgroup (same contract as
// ScalarMult).
func (s *Scratch) JointScalarMultLD64(u1, u2 *big.Int, q ec.Affine) ec.LD64 {
	var d2 []int16
	var t2 []ec.Affine64
	if !q.Inf && u2.Sign() != 0 {
		d2 = s.rec.RecodeWideSecond(u2, WRandom)
		t2 = s.alphaTable(q.To64(), WRandom)
	}
	return s.jointGen(u1, d2, t2)
}

// JointScalarMultFixedLD64 is JointScalarMultLD64 over a precomputed
// table for Q (fb = NewFixedBase(Q, w)): the per-call α-table build
// disappears and wider windows become profitable because the table
// cost is already sunk. fb is read-only here, so concurrent calls over
// the same FixedBase are safe.
func (s *Scratch) JointScalarMultFixedLD64(u1, u2 *big.Int, fb *FixedBase) ec.LD64 {
	var d2 []int16
	var t2 []ec.Affine64
	if !fb.point.Inf && u2.Sign() != 0 {
		d2 = s.rec.RecodeWideSecond(u2, fb.w)
		t2 = fb.table64
	}
	return s.jointGen(u1, d2, t2)
}

// jointGen recodes the generator-side scalar over the registry's
// width-WJoint table and runs the shared ladder.
func (s *Scratch) jointGen(u1 *big.Int, d2 []int16, t2 []ec.Affine64) ec.LD64 {
	var d1 []int16
	var t1 []ec.Affine64
	if u1.Sign() != 0 {
		d1 = s.rec.RecodeWide(u1, WJoint)
		t1 = genJoint().table64
	}
	return jointLD64(d1, t1, d2, t2)
}

// JointScalarMult computes u1·G + u2·Q with the interleaved ladder
// (one final inversion, allocation-free on a pooled Scratch). Q must
// lie in the prime-order subgroup.
func JointScalarMult(u1, u2 *big.Int, q ec.Affine) ec.Affine {
	s := getScratch()
	defer putScratch(s)
	return s.JointScalarMultLD64(u1, u2, q).Affine().Affine()
}

// JointScalarMultFixed is JointScalarMult over a precomputed table for
// Q. The table's point is Q; its width sets the u2 recoding width.
func JointScalarMultFixed(u1, u2 *big.Int, fb *FixedBase) ec.Affine {
	s := getScratch()
	defer putScratch(s)
	return s.JointScalarMultFixedLD64(u1, u2, fb).Affine().Affine()
}
