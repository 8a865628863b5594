package core

import (
	"math/big"

	"repro/internal/ec"
	"repro/internal/gf233"
)

// ct.go — the constant-time point multiplications of the hardened
// path. Two evaluators cover every secret scalar, and neither has a
// branch or a memory address that depends on it:
//
//   - variable-base k·P (hardened ECDH, ScalarMultLadder) runs the
//     x-only López–Dahab Montgomery ladder, a fixed number of steps
//     with one masked conditional swap per scalar bit — the state
//     machine internal/codegen runs on the M0+ as ct_ladder;
//   - fixed-base k·G (hardened signing and key generation) runs a
//     split comb: fixed-width column extraction, a full masked scan of
//     the table on every iteration (each entry is read, the live one
//     selected with bitmasks), and branchless LD formulas whose
//     exceptional cases (accumulator at infinity, doubling) resolve by
//     masked selects instead of early returns.
//
// Field-level behaviour is inherited from the backend: the CLMUL
// backend is a fixed instruction sequence; without CLMUL, MulTo looks
// table rows up by operand nibbles (see README, "Hardened mode").

// --- masked helpers over gf233.Elem64 ---
//
// Like the variable-time LD64 methods, the constant-time kernels below
// work in place: each writes its result through a pointer, and every
// field operation runs on the pointer forms gf233.MulTo, SqrTo and
// AddTo.

// ctEqU returns all-ones if a == b.
func ctEqU(a, b uint64) uint64 {
	x := a ^ b
	return ((x | -x) >> 63) - 1
}

// ctIsZeroElem returns all-ones if e == 0.
func ctIsZeroElem(e *gf233.Elem64) uint64 {
	x := e[0] | e[1] | e[2] | e[3]
	return ((x | -x) >> 63) - 1
}

// ctSelLD sets z to a when m is all-ones and leaves it when m is zero,
// reading and writing every word either way.
func ctSelLD(z *ec.LD64, m uint64, a *ec.LD64) {
	for i := range z.X {
		z.X[i] = a.X[i]&m | z.X[i]&^m
		z.Y[i] = a.Y[i]&m | z.Y[i]&^m
		z.Z[i] = a.Z[i]&m | z.Z[i]&^m
	}
}

// ctDouble sets p = 2p with the branchless LD doubling: the exact
// formula of LD64.Double with the early returns removed. Z = 0
// (infinity) propagates as Z3 = X²Z² = 0, so no special case is
// needed; X = 0 cannot occur for prime-order subgroup points.
func ctDouble(p *ec.LD64) {
	var z2 gf233.Elem64
	gf233.SqrTo(&z2, &p.Z)
	ctDoubleZ2(p, p, &z2)
}

// ctDoubleZ2 sets dst = 2p with Z² supplied by a caller that has
// already computed it (ctAddMixed squares the same Z for its own
// formula). dst may alias p: p is read in full before dst is written.
func ctDoubleZ2(dst, p *ec.LD64, z2 *gf233.Elem64) {
	var x2, z4, t gf233.Elem64
	gf233.SqrTo(&x2, &p.X)
	gf233.SqrTo(&t, &p.Y)
	gf233.SqrTo(&z4, z2)
	gf233.AddTo(&t, &t, &z4) // Y² + Z⁴
	gf233.MulTo(&dst.Z, &x2, z2)
	gf233.SqrTo(&dst.X, &x2)
	gf233.AddTo(&dst.X, &dst.X, &z4)
	gf233.MulTo(&t, &t, &dst.X)
	gf233.MulTo(&dst.Y, &z4, &dst.Z)
	gf233.AddTo(&dst.Y, &dst.Y, &t)
}

// ctAddMixed sets r = p + (qx, qy) without a branch: the general LD
// formula computed unconditionally, with the two exceptional cases
// folded back in by masked selects — p at infinity lifts the affine
// operand, and the doubling case (B = A = 0 with p finite) substitutes
// the branchless double. The remaining exceptional case (q = −p, B = 0
// and A ≠ 0) needs no fix-up: the general formula then yields Z3 = 0,
// a valid representation of infinity. r must not alias p.
func ctAddMixed(r, p *ec.LD64, qx, qy *gf233.Elem64) {
	var z12, a, b, c, t gf233.Elem64
	gf233.SqrTo(&z12, &p.Z)
	gf233.MulTo(&a, qy, &z12)
	gf233.AddTo(&a, &a, &p.Y) // A
	gf233.MulTo(&b, qx, &p.Z)
	gf233.AddTo(&b, &b, &p.X) // B
	mInf := ctIsZeroElem(&p.Z)
	mDbl := ^mInf & ctIsZeroElem(&b) & ctIsZeroElem(&a)
	gf233.MulTo(&c, &p.Z, &b) // C
	gf233.SqrTo(&r.Z, &c)     // Z3
	gf233.SqrTo(&b, &b)
	gf233.AddTo(&b, &b, &a)
	gf233.MulTo(&b, &b, &c)
	gf233.SqrTo(&r.X, &a)
	gf233.AddTo(&r.X, &r.X, &b) // X3
	gf233.MulTo(&a, &a, &c)
	gf233.AddTo(&a, &a, &r.Z)
	gf233.MulTo(&t, qx, &r.Z)
	gf233.AddTo(&t, &t, &r.X)
	gf233.MulTo(&a, &a, &t)
	gf233.SqrTo(&t, &r.Z)
	gf233.AddTo(&c, qx, qy)
	gf233.MulTo(&t, &t, &c)
	gf233.AddTo(&r.Y, &a, &t) // Y3
	var dbl ec.LD64
	ctDoubleZ2(&dbl, p, &z12)
	lift := ec.LD64{X: *qx, Y: *qy, Z: gf233.One64}
	ctSel3LD(r, mDbl, &dbl, mInf, &lift)
}

// ctSel3LD sets z to a when ma is all-ones, to b when mb is all-ones,
// and leaves it otherwise; ma and mb must be disjoint. One fused pass
// instead of two chained ctSelLDs — the exceptional-case fix-up runs
// on every masked addition, so the extra pass shows up.
func ctSel3LD(z *ec.LD64, ma uint64, a *ec.LD64, mb uint64, b *ec.LD64) {
	mz := ^(ma | mb)
	for i := range z.X {
		z.X[i] = a.X[i]&ma | b.X[i]&mb | z.X[i]&mz
		z.Y[i] = a.Y[i]&ma | b.Y[i]&mb | z.Y[i]&mz
		z.Z[i] = a.Z[i]&ma | b.Z[i]&mb | z.Z[i]&mz
	}
}

// ctScanTable reads every entry of the affine table and writes the one
// at index idx to (x, y). The access pattern is independent of idx.
func ctScanTable(x, y *gf233.Elem64, tab []ec.Affine64, idx uint64) {
	// The accumulators live in scalar locals: with the outputs
	// accumulated directly, the compiler keeps them in memory and this
	// loop is the single hottest in the hardened sign.
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
	*x = gf233.Elem64{x0, x1, x2, x3}
	*y = gf233.Elem64{y0, y1, y2, y3}
}

// loadScalarWords stages 0 ≤ k < 2^240 into the Scratch's fixed-width
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

// ctReduceScalar returns k mod m: k itself when 0 ≤ k < m, the only
// values the hardened paths are given (private scalars and nonces in
// [1, n−1], with m = n for the comb and 4n for the ladder), and
// otherwise a big.Int reduction into the Scratch. The range check
// compares against the public modulus; its outcome is the same for
// every in-range secret, so the branch is data-independent on the
// hardened paths.
func (s *Scratch) ctReduceScalar(k, m *big.Int) *big.Int {
	if k.Sign() >= 0 && k.Cmp(m) < 0 {
		return k
	}
	return s.mod.Mod(k, m)
}

// ladderBits is the fixed length of the Montgomery ladder: the bit
// length of 4n, the order of the curve group. Every scalar reduced
// modulo 4n takes exactly this many steps.
const ladderBits = 234

// curveOrder is 4n, the number of points on sect233k1.
var curveOrder = new(big.Int).Lsh(ec.Order, 2)

// ctSwapLegs exchanges the ladder legs (x1:z1) and (x2:z2) when m is
// all-ones and keeps them when m is zero, reading and writing all four
// elements either way.
func ctSwapLegs(m uint64, x1, z1, x2, z2 *gf233.Elem64) {
	for i := range x1 {
		tx := (x1[i] ^ x2[i]) & m
		tz := (z1[i] ^ z2[i]) & m
		x1[i] ^= tx
		x2[i] ^= tx
		z1[i] ^= tz
		z2[i] ^= tz
	}
}

// ladder runs the x-only López–Dahab Montgomery ladder
// (Hankerson–Menezes–Vanstone, Alg. 3.40) for the scalar staged in
// s.kw and the point with abscissa x ≠ 0. It returns the projective
// x-lines (X1:Z1) = [k]P and (X2:Z2) = [k+1]P; Z = 0 is the point at
// infinity.
//
// The legs start at ((1:0), (x:1)) = (∞, P), so leading zero bits cost
// nothing and every k < 2^ladderBits runs the same ladderBits steps.
// Each step swaps the legs under a mask of the scalar bit, adds leg 1
// into leg 2 (their difference is always P, so the addition needs only
// x), doubles leg 1 and swaps back: 5M + 4S whatever the bit. The bit
// is addressed by the public loop index alone.
func (s *Scratch) ladder(x *gf233.Elem64) (x1, z1, x2, z2 gf233.Elem64) {
	x1, x2, z2 = gf233.One64, *x, gf233.One64
	var a, b gf233.Elem64
	for i := ladderBits - 1; i >= 0; i-- {
		m := -(s.kw[i>>6] >> (i & 63) & 1)
		ctSwapLegs(m, &x1, &z1, &x2, &z2)
		// Leg 2 ← leg 1 + leg 2: Z = (X1·Z2 + X2·Z1)², X = x·Z + X1·Z2·X2·Z1.
		gf233.MulTo(&a, &x1, &z2)
		gf233.MulTo(&b, &x2, &z1)
		gf233.AddTo(&z2, &a, &b)
		gf233.SqrTo(&z2, &z2)
		gf233.MulTo(&a, &a, &b)
		gf233.MulTo(&x2, x, &z2)
		gf233.AddTo(&x2, &x2, &a)
		// Leg 1 ← 2·leg 1 (b = 1): Z = X1²·Z1², X = X1⁴ + Z1⁴ = (X1² + Z1²)².
		gf233.SqrTo(&x1, &x1)
		gf233.SqrTo(&z1, &z1)
		gf233.AddTo(&a, &x1, &z1)
		gf233.MulTo(&z1, &x1, &z1)
		gf233.SqrTo(&x1, &a)
		ctSwapLegs(m, &x1, &z1, &x2, &z2)
	}
	return
}

// LadderX returns the projective x-line (X:Z) of k·P from the
// constant-time ladder: x(k·P) = X/Z, and Z = 0 when k·P = ∞. P must
// not have x = 0 (the order-2 point), which no validated peer has.
// This is the hardened ECDH evaluation; batch callers share the
// inversion of Z.
func (s *Scratch) LadderX(k *big.Int, p ec.Affine) (x, z gf233.Elem64) {
	if p.Inf {
		return gf233.One64, gf233.Zero64
	}
	s.loadScalarWords(s.ctReduceScalar(k, curveOrder))
	px := gf233.ToElem64(p.X)
	x, z, _, _ = s.ladder(&px)
	return x, z
}

// LadderX is x(k·P) from the constant-time ladder, normalised with the
// fixed-chain Itoh–Tsujii inversion (pooled Scratch); ok is false when
// k·P = ∞.
func LadderX(k *big.Int, p ec.Affine) (x gf233.Elem, ok bool) {
	s := getScratch()
	defer putScratch(s)
	lx, lz := s.LadderX(k, p)
	zi, ok := gf233.InvItohTsujii64(lz)
	gf233.MulTo(&lx, &lx, &zi)
	return lx.Elem(), ok
}

// ScalarMultLadder computes k·P for any integer k and any point P on
// the curve with the constant-time ladder, the countermeasure the
// paper's future-work section (§5) proposes against power analysis. k
// is reduced modulo 4n, so every scalar runs the same ladderBits
// steps; y is recovered from both legs with one fixed-chain inversion.
// The only branches are on the public P (∞, and the order-2 point
// x = 0, which the x-only formulas cannot recover y for) and on the
// result (∞, and −P when (k+1)·P = ∞).
func ScalarMultLadder(k *big.Int, p ec.Affine) ec.Affine {
	if p.Inf {
		return ec.Infinity
	}
	s := getScratch()
	defer putScratch(s)
	kr := s.ctReduceScalar(k, curveOrder)
	q := p.To64()
	if q.X.IsZero() {
		// Order-2 point: k·P = P for odd k, ∞ for even.
		if kr.Bit(0) == 1 {
			return p
		}
		return ec.Infinity
	}
	s.loadScalarWords(kr)
	x1, z1, x2, z2 := s.ladder(&q.X)
	return ladderXY(&q, &x1, &z1, &x2, &z2).Affine()
}

// ladderXY recovers the affine k·P from the ladder legs (Alg. 3.40
// step 3) with one inversion, of x·Z1·Z2:
//
//	x_k = X1/Z1
//	y_k = (x + x_k)·[(X1 + x·Z1)(X2 + x·Z2) + (x² + y)·Z1·Z2] / (x·Z1·Z2) + y
func ladderXY(p *ec.Affine64, x1, z1, x2, z2 *gf233.Elem64) ec.Affine64 {
	if z1.IsZero() {
		return ec.Affine64{Inf: true}
	}
	if z2.IsZero() {
		// (k+1)·P = ∞, so k·P = −P.
		return p.Neg()
	}
	x, y := &p.X, &p.Y
	var z1z2, xz2, inv, xk, t, u gf233.Elem64
	gf233.MulTo(&z1z2, z1, z2)
	gf233.MulTo(&xz2, x, z2)
	gf233.MulTo(&inv, x, &z1z2)
	inv, _ = gf233.InvItohTsujii64(inv)
	gf233.MulTo(&xk, x1, &xz2)
	gf233.MulTo(&xk, &xk, &inv)
	gf233.MulTo(&t, x, z1)
	gf233.AddTo(&t, &t, x1)
	gf233.AddTo(&u, x2, &xz2)
	gf233.MulTo(&t, &t, &u) // (X1 + x·Z1)(X2 + x·Z2)
	gf233.SqrTo(&u, x)
	gf233.AddTo(&u, &u, y)
	gf233.MulTo(&u, &u, &z1z2)
	gf233.AddTo(&t, &t, &u) // the bracket
	gf233.MulTo(&t, &t, &inv)
	gf233.AddTo(&u, x, &xk)
	gf233.MulTo(&t, &t, &u)
	gf233.AddTo(&t, &t, y)
	return ec.Affine64{X: xk, Y: t}
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
	kr := s.ctReduceScalar(k, ec.Order)
	s.loadScalarWords(kr)
	q := ec.LD64Infinity
	for col := cc.e - 1; col >= 0; col-- {
		ctDouble(&q)
		if hiCol := col + cc.e; hiCol < c.d {
			ctAddColumn(s, &q, cc.hi, hiCol, c.d, c.w)
		}
		ctAddColumn(s, &q, c.table64, col, c.d, c.w)
	}
	return q
}

// ctAddColumn folds one comb column into the accumulator q with a full
// masked table scan.
func ctAddColumn(s *Scratch, q *ec.LD64, tab []ec.Affine64, col, d, w int) {
	u := s.ctColumn(col, d, w)
	nz := ^(((u | -u) >> 63) - 1)
	// Table index u−1; a zero column scans for dummy index 0.
	idx := (u - 1) & nz
	var ex, ey gf233.Elem64
	ctScanTable(&ex, &ey, tab, idx)
	var r ec.LD64
	ctAddMixed(&r, q, &ex, &ey)
	ctSelLD(q, nz, &r)
}

// ScalarBaseMultCT is the package-level entry point (pooled Scratch).
func ScalarBaseMultCT(k *big.Int) ec.Affine {
	s := getScratch()
	defer putScratch(s)
	return s.ScalarBaseMultCT(k)
}
