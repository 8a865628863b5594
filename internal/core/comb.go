package core

import (
	"math/big"
	"math/bits"

	"repro/internal/ec"
	"repro/internal/gf233"
)

// Fixed-base comb multiplication (Lim-Lee). The scalar's bit positions
// are split into w interleaved streams of d = ceil(t/w) columns each,
// and the 2^w - 1 possible column patterns are precomputed:
//
//	T[u] = Σ_{i : bit i of u set} 2^(i·d)·P
//
// so k·P costs d-1 doublings and at most d mixed additions — no τ-adic
// recoding, no per-call big.Int division. This is the host-side
// fast path for the generator: the wTNAF w=6 method (FixedBase) stays
// as the paper-faithful reference that internal/profile models, while
// ScalarBaseMult and GenerateKey run on the comb.

// WComb is the default comb width for the generator table: 2^8 - 1
// points (≈15 KiB) buy a 29-column evaluation loop, a table size that
// is irrelevant on a host (the M0+ RAM trade-off of §4.2.2 does not
// apply here).
const WComb = 8

// WCombCT is the comb width for the hardened generator table. The
// constant-time evaluator cannot index the table by the secret column
// pattern — it scans every entry and selects with masks — so its cost
// is d·(2^w − 1) masked entry reads plus d point operations, and the
// fast path's width is exactly wrong: at w = 8 the scan sweeps 29·255
// entries (≈460 KiB of traffic) per call. Width 5 scans 47·31 entries
// from a 2 KiB table that stays L1-resident, which is near the
// d·(2^w−1) + d·pointop minimum; both combs evaluate the same k·G, so
// the hardened result stays bit-identical to the fast path.
const WCombCT = 5

// Comb holds the per-point comb precomputation.
type Comb struct {
	w, d  int
	point ec.Affine
	// table[u-1] = Σ 2^(i·d)·P over the set bits i of u, in affine
	// coordinates so the evaluation loop uses mixed additions. table64
	// is the same table pre-converted for the 64-bit evaluation loop.
	table   []ec.Affine
	table64 []ec.Affine64
}

// NewComb builds the width-w comb table for p (w in [2, 16]). P must
// lie in the prime-order subgroup. The table is built in LD coordinates
// and normalised with one batched inversion.
func NewComb(p ec.Affine, w int) *Comb {
	if w < 2 || w > 16 {
		panic("core: comb width out of range")
	}
	t := ec.Order.BitLen()
	d := (t + w - 1) / w
	c := &Comb{w: w, d: d, point: p}
	if p.Inf {
		c.table = make([]ec.Affine, 1<<w-1)
		for i := range c.table {
			c.table[i] = ec.Infinity
		}
		return c
	}
	// Spaced bases 2^(i·d)·P, each d doublings past the previous, kept
	// projective until the single batched normalisation below.
	spaced := make([]ec.LD, w)
	spaced[0] = ec.FromAffine(p)
	for i := 1; i < w; i++ {
		q := spaced[i-1]
		for j := 0; j < d; j++ {
			q = q.Double()
		}
		spaced[i] = q
	}
	// Subset sums: entry u extends entry u minus its top set bit. The
	// additions need affine operands, so normalise the spaced bases
	// first, then the full table.
	bases := normalizeLD(spaced)
	tableLD := make([]ec.LD, 1<<w-1)
	for u := 1; u < 1<<w; u++ {
		top := bits.Len(uint(u)) - 1
		if rest := u - 1<<top; rest == 0 {
			tableLD[u-1] = ec.FromAffine(bases[top])
		} else {
			tableLD[u-1] = tableLD[rest-1].AddMixed(bases[top])
		}
	}
	c.table = normalizeLD(tableLD)
	c.table64 = make([]ec.Affine64, len(c.table))
	for i, q := range c.table {
		c.table64[i] = q.To64()
	}
	return c
}

// normalizeLD converts a slice of LD points to affine with a single
// batched field inversion (Montgomery's trick), skipping any points at
// infinity.
func normalizeLD(points []ec.LD) []ec.Affine {
	zs := make([]gf233.Elem, 0, len(points))
	for _, p := range points {
		if !p.IsInfinity() {
			zs = append(zs, p.Z)
		}
	}
	gf233.InvBatch(zs)
	out := make([]ec.Affine, len(points))
	j := 0
	for i, p := range points {
		if p.IsInfinity() {
			out[i] = ec.Infinity
			continue
		}
		zi := zs[j]
		j++
		out[i] = ec.Affine{
			X: gf233.Mul(p.X, zi),
			Y: gf233.Mul(p.Y, gf233.Sqr(zi)),
		}
	}
	return out
}

// Point returns the fixed point this comb belongs to.
func (c *Comb) Point() ec.Affine { return c.point }

// W returns the comb width.
func (c *Comb) W() int { return c.w }

// TableSize returns the number of precomputed points.
func (c *Comb) TableSize() int { return len(c.table) }

// ScalarMult computes k·P for the fixed point. The scalar is first
// reduced modulo the group order, which is both a correctness condition
// for the comb's column decomposition and what makes negative and
// oversized scalars behave like the reference ladder. The table is
// frozen at construction, so concurrent calls are safe; the evaluation
// runs on a pooled Scratch and allocates nothing.
func (c *Comb) ScalarMult(k *big.Int) ec.Affine {
	s := getScratch()
	defer putScratch(s)
	return c.scalarMultLD64(s, k).Affine().Affine()
}

// column assembles the comb column pattern for bit position col: bit i
// of the result is scalar bit col + i·d.
func (c *Comb) column(r *big.Int, col int) int {
	u := 0
	for i := 0; i < c.w; i++ {
		u |= int(r.Bit(col+i*c.d)) << i
	}
	return u
}
