package core

import (
	"math/big"

	"repro/internal/ec"
	"repro/internal/gf233"
)

// ct.go — constant-time point-multiplication evaluators for the
// hardened signing path.
//
// The fast evaluators (scalarMultLD64W, Comb.scalarMultLD64) branch on
// secret digit values and index their precomputed tables by them. The
// hardened twins below keep the same tables and the same group
// arithmetic but remove every secret-dependent branch and address:
//
//   - digits come from the fixed-length constant-time recoding
//     (koblitz.RecodeCT) or from fixed-width column extraction;
//   - every table lookup is a full masked linear scan — each entry is
//     read on each iteration and the live one selected with bitmasks;
//   - digit signs apply branchlessly (on a binary curve −(x, y) =
//     (x, x+y), one masked XOR);
//   - the group operations run on branchless variants of the LD
//     formulas, with the exceptional cases (accumulator at infinity,
//     doubling) resolved by masked selects instead of early returns.
//
// Field-level constant-time behaviour is inherited from the backend:
// the CLMUL backend is a fixed instruction sequence; the portable
// backends use small in-cache tables (see README, "Hardened mode").

// --- masked helpers over gf233.Elem64 ---

// ctEqU returns all-ones if a == b.
func ctEqU(a, b uint64) uint64 {
	x := a ^ b
	return ((x | -x) >> 63) - 1
}

// ctNonZero8 returns all-ones if the int8 digit is nonzero.
func ctNonZero8(d int64) uint64 {
	return ^(((uint64(d) | -uint64(d)) >> 63) - 1)
}

// ctIsZeroElem returns all-ones if e == 0.
func ctIsZeroElem(e gf233.Elem64) uint64 {
	x := e[0] | e[1] | e[2] | e[3]
	return ((x | -x) >> 63) - 1
}

// ctSelElem returns a when m is all-ones, b when m is zero.
func ctSelElem(m uint64, a, b gf233.Elem64) gf233.Elem64 {
	var z gf233.Elem64
	for i := range z {
		z[i] = a[i]&m | b[i]&^m
	}
	return z
}

// ctSelLD is the LD64 triple select.
func ctSelLD(m uint64, a, b ec.LD64) ec.LD64 {
	return ec.LD64{
		X: ctSelElem(m, a.X, b.X),
		Y: ctSelElem(m, a.Y, b.Y),
		Z: ctSelElem(m, a.Z, b.Z),
	}
}

// ctDouble is the branchless LD doubling: the exact formula of
// LD64.Double with the early returns removed. Z = 0 (infinity)
// propagates as Z3 = X²Z² = 0, so no special case is needed; X = 0
// cannot occur for prime-order subgroup points.
func ctDouble(p ec.LD64) ec.LD64 {
	return ctDoubleZ2(p, gf233.Sqr64(p.Z))
}

// ctDoubleZ2 is ctDouble with Z² supplied by a caller that has already
// computed it (ctAddMixed squares the same Z for its own formula).
func ctDoubleZ2(p ec.LD64, z2 gf233.Elem64) ec.LD64 {
	x2 := gf233.Sqr64(p.X)
	z4 := gf233.Sqr64(z2)
	x4 := gf233.Sqr64(x2)
	y2 := gf233.Sqr64(p.Y)
	z3 := gf233.Mul64(x2, z2)
	x3 := gf233.Add64(x4, z4)
	y3 := gf233.Add64(gf233.Mul64(z4, z3), gf233.Mul64(x3, gf233.Add64(y2, z4)))
	return ec.LD64{X: x3, Y: y3, Z: z3}
}

// ctAddMixed is the branchless mixed addition p + (qx, qy): the
// general LD formula computed unconditionally, with the two exceptional
// cases folded back in by masked selects — p at infinity lifts the
// affine operand, and the doubling case (B = A = 0 with p finite)
// substitutes the branchless double. The remaining exceptional case
// (q = −p, B = 0 and A ≠ 0) needs no fix-up: the general formula then
// yields Z3 = 0, a valid representation of infinity.
func ctAddMixed(p ec.LD64, qx, qy gf233.Elem64) ec.LD64 {
	z12 := gf233.Sqr64(p.Z)
	a := gf233.Add64(gf233.Mul64(qy, z12), p.Y)
	b := gf233.Add64(gf233.Mul64(qx, p.Z), p.X)
	c := gf233.Mul64(p.Z, b)
	z3 := gf233.Sqr64(c)
	d := gf233.Mul64(qx, z3)
	b2 := gf233.Sqr64(b)
	x3 := gf233.Add64(gf233.Sqr64(a), gf233.Mul64(c, gf233.Add64(a, b2)))
	e := gf233.Mul64(a, c)
	y3 := gf233.Add64(
		gf233.Mul64(gf233.Add64(d, x3), gf233.Add64(e, z3)),
		gf233.Mul64(gf233.Add64(qx, qy), gf233.Sqr64(z3)),
	)
	res := ec.LD64{X: x3, Y: y3, Z: z3}
	mInf := ctIsZeroElem(p.Z)
	mDbl := ^mInf & ctIsZeroElem(b) & ctIsZeroElem(a)
	return ctSel3LD(
		mDbl, ctDoubleZ2(p, z12),
		mInf, ec.LD64{X: qx, Y: qy, Z: gf233.One64},
		res,
	)
}

// ctSel3LD returns a when ma is all-ones, b when mb is all-ones, and c
// otherwise; ma and mb must be disjoint. One fused pass instead of two
// chained ctSelLDs — the exceptional-case fix-up runs on every masked
// addition, so the extra pass shows up.
func ctSel3LD(ma uint64, a ec.LD64, mb uint64, b, c ec.LD64) ec.LD64 {
	mc := ^(ma | mb)
	var z ec.LD64
	for i := range z.X {
		z.X[i] = a.X[i]&ma | b.X[i]&mb | c.X[i]&mc
		z.Y[i] = a.Y[i]&ma | b.Y[i]&mb | c.Y[i]&mc
		z.Z[i] = a.Z[i]&ma | b.Z[i]&mb | c.Z[i]&mc
	}
	return z
}

// ctScanTable reads every entry of the affine table and returns the
// one at index idx, negated (y ← x + y) when sign is all-ones. The
// access pattern is independent of idx and sign.
func ctScanTable(tab []ec.Affine64, idx, sign uint64) (x, y gf233.Elem64) {
	// The accumulators live in scalar locals: with the array return
	// values accumulated directly, the compiler keeps them in memory
	// and this loop is the single hottest in the hardened sign.
	var x0, x1, x2, x3, y0, y1, y2, y3 uint64
	for j := range tab {
		e := &tab[j]
		m := ctEqU(uint64(j), idx)
		x0 |= e.X[0] & m
		x1 |= e.X[1] & m
		x2 |= e.X[2] & m
		x3 |= e.X[3] & m
		y0 |= e.Y[0] & m
		y1 |= e.Y[1] & m
		y2 |= e.Y[2] & m
		y3 |= e.Y[3] & m
	}
	x = gf233.Elem64{x0, x1, x2, x3}
	y = gf233.Elem64{y0 ^ x0&sign, y1 ^ x1&sign, y2 ^ x2&sign, y3 ^ x3&sign}
	return
}

// loadScalarWords stages 0 ≤ k < 2^232 into the Scratch's fixed-width
// little-endian words (no length-dependent code path: FillBytes writes
// the full 30 bytes regardless of the value).
func (s *Scratch) loadScalarWords(k *big.Int) {
	k.FillBytes(s.kb[:30])
	for i := range s.kw {
		s.kw[i] = 0
		for j := 0; j < 8; j++ {
			if b := 29 - 8*i - j; b >= 0 {
				s.kw[i] |= uint64(s.kb[b]) << (8 * j)
			}
		}
	}
}

// ctReduceScalar returns k itself when it is already a canonical
// scalar (0 ≤ k < n, the only values the hardened paths are given) and
// otherwise falls back to a big.Int reduction into the Scratch. The
// range check compares against the public order; its outcome is the
// same for every canonical secret, so the branch is data-independent
// on the hardened paths.
func (s *Scratch) ctReduceScalar(k *big.Int) *big.Int {
	if k.Sign() >= 0 && k.Cmp(ec.Order) < 0 {
		return k
	}
	return s.mod.Mod(k, ec.Order)
}

// ScalarMultCT computes k·P with a constant-time evaluation: the
// fixed-length τ-adic recoding, a full masked scan of the width-w α
// table on every iteration, and branchless digit-sign and
// exceptional-case handling. P (public) must lie in the prime-order
// subgroup; the result matches ScalarMult bit for bit.
func (s *Scratch) ScalarMultCT(k *big.Int, p ec.Affine) ec.Affine {
	return s.ScalarMultCTLD64(k, p).Affine().Affine()
}

// ScalarMultCTLD64 is ScalarMultCT stopping short of the final affine
// conversion.
func (s *Scratch) ScalarMultCTLD64(k *big.Int, p ec.Affine) ec.LD64 {
	if p.Inf {
		return ec.LD64Infinity
	}
	kr := s.ctReduceScalar(k)
	digits := s.rec.RecodeCT(kr, WRandom)
	table := s.alphaTable(p.To64(), WRandom)
	q := ec.LD64Infinity
	for i := len(digits) - 1; i >= 0; i-- {
		// One τ per position, zero digit or not: deferring it past zero
		// digits (as the variable-time loops do) would branch on the
		// secret digit pattern.
		q = q.FrobeniusN(1)
		d := int64(digits[i])
		sign := uint64(d >> 63)
		nz := ctNonZero8(d)
		ad := uint64((d^int64(sign))-int64(sign)) >> 1
		ex, ey := ctScanTable(table, ad, sign)
		q = ctSelLD(nz, ctAddMixed(q, ex, ey), q)
	}
	return q
}

// ScalarBaseMultCT computes k·G on the generator comb with a
// constant-time evaluation (fixed-width column extraction, full masked
// table scans, branchless exceptional cases). The result matches
// ScalarBaseMult bit for bit.
func (s *Scratch) ScalarBaseMultCT(k *big.Int) ec.Affine {
	return s.ScalarBaseMultCTLD64(k).Affine().Affine()
}

// ScalarBaseMultCTLD64 is ScalarBaseMultCT left projective for batched
// normalisation.
func (s *Scratch) ScalarBaseMultCTLD64(k *big.Int) ec.LD64 {
	return generatorCombCT().scalarMultCTLD64(s, k)
}

// ctColumn assembles the comb column pattern for bit position col from
// the staged fixed-width scalar words. Bit addresses depend only on
// the public loop indices.
func (s *Scratch) ctColumn(col, d, w int) uint64 {
	var u uint64
	for i := 0; i < w; i++ {
		pos := col + i*d
		u |= (s.kw[pos>>6] >> (pos & 63) & 1) << i
	}
	return u
}

// combCT is the hardened comb evaluator: the width-WCombCT comb split
// Lim-Lee style into two halves (v = 2). The branchless double is the
// most expensive step the constant-time loop cannot amortise, so the
// split buys the usual trade: with hi[u] = 2^e·T[u] the accumulator
// needs only e = ⌈d/2⌉ doublings,
//
//	k·P = Σ_{c<e} 2^c·( T[u_c] + 2^e·T[u_{c+e}] ),
//
// at the price of one extra masked scan per iteration — and scans are
// the cheap part at width WCombCT (the table is L1-resident).
type combCT struct {
	c  *Comb
	e  int           // ⌈d/2⌉ doublings per evaluation
	hi []ec.Affine64 // hi[u-1] = 2^e · c.table[u-1]
}

// newCombCT derives the split tables from a built comb.
func newCombCT(c *Comb) *combCT {
	cc := &combCT{c: c, e: (c.d + 1) / 2}
	shifted := make([]ec.LD, len(c.table))
	for i, p := range c.table {
		q := ec.FromAffine(p)
		for j := 0; j < cc.e; j++ {
			q = q.Double()
		}
		shifted[i] = q
	}
	hi := normalizeLD(shifted)
	cc.hi = make([]ec.Affine64, len(hi))
	for i, p := range hi {
		cc.hi[i] = p.To64()
	}
	return cc
}

// scalarMultCTLD64 evaluates the split comb in constant time: per
// iteration one branchless double and, for each half, one full masked
// scan of the 2^w − 1 table entries, one unconditional mixed addition,
// and a masked select for the zero column (the scan's dummy index 0
// keeps the access pattern fixed). Column bit addresses and the
// half-column bounds check depend only on loop indices, never on the
// scalar.
func (cc *combCT) scalarMultCTLD64(s *Scratch, k *big.Int) ec.LD64 {
	c := cc.c
	if c.point.Inf {
		return ec.LD64Infinity
	}
	kr := s.ctReduceScalar(k)
	s.loadScalarWords(kr)
	q := ec.LD64Infinity
	for col := cc.e - 1; col >= 0; col-- {
		q = ctDouble(q)
		if hiCol := col + cc.e; hiCol < c.d {
			q = ctAddColumn(s, q, cc.hi, hiCol, c.d, c.w)
		}
		q = ctAddColumn(s, q, c.table64, col, c.d, c.w)
	}
	return q
}

// ctAddColumn folds one comb column into the accumulator with a full
// masked table scan.
func ctAddColumn(s *Scratch, q ec.LD64, tab []ec.Affine64, col, d, w int) ec.LD64 {
	u := s.ctColumn(col, d, w)
	nz := ^(((u | -u) >> 63) - 1)
	// Table index u−1; a zero column scans for dummy index 0.
	idx := (u - 1) & nz
	ex, ey := ctScanTable(tab, idx, 0)
	return ctSelLD(nz, ctAddMixed(q, ex, ey), q)
}

// ScalarMultCT is the package-level entry point (pooled Scratch).
func ScalarMultCT(k *big.Int, p ec.Affine) ec.Affine {
	s := getScratch()
	defer putScratch(s)
	return s.ScalarMultCT(k, p)
}

// ScalarBaseMultCT is the package-level entry point (pooled Scratch).
func ScalarBaseMultCT(k *big.Int) ec.Affine {
	s := getScratch()
	defer putScratch(s)
	return s.ScalarBaseMultCT(k)
}
