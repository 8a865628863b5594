package core

import (
	"math/big"
	"sync"

	"repro/internal/ec"
	"repro/internal/gf233"
	"repro/internal/koblitz"
)

// Scratch threads reusable state through a whole point multiplication
// so the hot paths stop allocating: the τ-adic recoding digit buffers
// (koblitz.Scratch), the per-point α table built natively in the
// 64-bit representation, the LD staging buffers, and the operand and
// scratch slices for batched inversion. After the first use everything
// is at steady-state size and a scalar multiplication performs zero
// heap allocations.
//
// A Scratch is NOT safe for concurrent use: give each goroutine its
// own (the batch engine keeps one per worker; the package-level entry
// points draw from an internal sync.Pool). Results returned as values
// (ec.Affine, ec.LD64) do not alias the Scratch; digit slices and
// tables produced internally do.
type Scratch struct {
	rec   koblitz.Scratch
	mod   big.Int // scalar mod n for comb evaluation
	table []ec.Affine64
	// staging for the α-table construction (alphaTables): the LD chain of
	// multiples, the affine multiples with their τ images, and the
	// batched-inversion operands.
	ld   []ec.LD64
	mult []ec.Affine64
	zs   []gf233.Elem64
	inv  []gf233.Elem64
	// per-point bases and α tables of the batched ladder
	// (ScalarMultBatchLD64), kept apart from table so a batch never
	// overwrites a table a caller is holding.
	bp   []ec.Affine64
	btab []ec.Affine64
	// kw/kb stage a secret scalar in fixed-width form for the
	// constant-time evaluators (ct.go); both are zeroed by Wipe.
	kw [4]uint64
	kb [32]byte
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return new(Scratch) }

// scratchPool recycles Scratch values for the package-level entry
// points (ScalarMult, ScalarBaseMult, Comb.ScalarMult, ...), which
// keeps even the scratch-oblivious public API allocation-free in
// steady state.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

func getScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// putScratch wipes before pooling: the entry points are routinely
// called with secret scalars (private keys through ScalarBaseMult,
// nonces through the signer), and a pooled Scratch idles indefinitely.
func putScratch(s *Scratch) {
	s.Wipe()
	scratchPool.Put(s)
}

// Wipe zeroes the scalar-derived state the Scratch retains — the
// recoding digits (invertible back to the scalar) and the comb's
// reduced-scalar buffer — keeping all storage for reuse. The point
// tables and Z buffers stay: they derive from public points.
func (s *Scratch) Wipe() {
	s.rec.Wipe()
	koblitz.WipeInt(&s.mod)
	for i := range s.kw {
		s.kw[i] = 0
	}
	for i := range s.kb {
		s.kb[i] = 0
	}
}

// Grow returns *buf resized to length n, reallocating only when the
// capacity retained from earlier uses is insufficient — the shared
// capacity-reuse helper for scratch buffers (internal/engine uses it
// too).
func Grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// normalize64 converts pts to affine into dst (len(dst) == len(pts))
// with a single batched field inversion. Points at infinity (Z = 0)
// pass through as affine infinity — InvBatch64's zero-skipping is what
// makes that free.
func (s *Scratch) normalize64(dst []ec.Affine64, pts []ec.LD64) {
	n := len(pts)
	zs := Grow(&s.zs, n)
	inv := Grow(&s.inv, n)
	for i := range pts {
		zs[i] = pts[i].Z
	}
	gf233.InvBatch64(zs, inv)
	for i := range pts {
		p, d := &pts[i], &dst[i]
		if p.IsInfinity() {
			*d = ec.Affine64{Inf: true}
			continue
		}
		var zi2 gf233.Elem64
		gf233.SqrTo(&zi2, &zs[i])
		gf233.MulTo(&d.X, &p.X, &zs[i])
		gf233.MulTo(&d.Y, &p.Y, &zi2)
		d.Inf = false
	}
}

// alphaTable builds p's width-w table into the Scratch's own buffer,
// valid until the next alphaTable call on this Scratch.
func (s *Scratch) alphaTable(p ec.Affine64, w int) []ec.Affine64 {
	return s.alphaTables(&s.table, []ec.Affine64{p}, w)
}

// alphaTables builds every host α table. It grows *dst to
// len(ps)·t entries (t = 2^(w−2)) and writes the width-w table of
// ps[i], P_u = α_u·P for odd u < 2^(w−1), into dst[i·t : (i+1)·t],
// entry for entry equal to AlphaPoints(ps[i], w).
//
// Each representative α_u = a + b·τ has |a|, |b| ≤ m (m = 3, 5, 19, 51
// at w = 4, 6, 10, 12; Solinas 2000), so an entry is one affine
// addition of two precomputed multiples, ±|a|·P and ±|b|·τP:
//
//  1. j·P for 2 ≤ j ≤ m as an LD chain, normalised with one batched
//     inversion, and the Frobenius images τ(j·P);
//  2. every entry's chord slope over one more batched inversion shared
//     by all entries of all points.
//
// So a call pays two inversions whatever the width and batch size. A
// zero coefficient or an operand at infinity needs no addition; a pair
// with x₁ = x₂ (a doubling, or a sum that vanishes) falls back to the
// total LD addition, which happens only off the prime-order subgroup.
//
// Tables are written only to *dst, never into the staging buffers
// (ld, mult, zs, inv), so a table a caller holds survives later builds
// through the same Scratch.
func (s *Scratch) alphaTables(dst *[]ec.Affine64, ps []ec.Affine64, w int) []ec.Affine64 {
	alphaA, alphaB := koblitz.AlphaCoeffs(w)
	t, n := len(alphaA), len(ps)
	m := 1
	for u := range alphaA {
		m = max(m, int(abs64(alphaA[u])), int(abs64(alphaB[u])))
	}
	// Multiples are stored j-major: mult[(j−1)·n+i] = j·ps[i] and,
	// from offset m·n, their τ images.
	mult := Grow(&s.mult, 2*m*n)
	copy(mult, ps)
	ld := Grow(&s.ld, (m-1)*n)
	for i := range ps {
		q := ec.FromAffine64(ps[i])
		for j := 0; j < m-1; j++ {
			q.AddMixed(&ps[i])
			ld[j*n+i] = q
		}
	}
	s.normalize64(mult[n:m*n], ld)
	for j := 0; j < m*n; j++ {
		mult[m*n+j] = mult[j].Frobenius()
	}
	zs := Grow(&s.zs, t*n)
	for i := range ps {
		for u := range alphaA {
			x1 := multiple(mult[i:], n, alphaA[u])
			x2 := multiple(mult[m*n+i:], n, alphaB[u])
			zs[i*t+u] = gf233.Zero64
			if !x1.Inf && !x2.Inf {
				gf233.AddTo(&zs[i*t+u], &x1.X, &x2.X)
			}
		}
	}
	gf233.InvBatch64(zs, Grow(&s.inv, t*n))
	table := Grow(dst, t*n)
	for i := range ps {
		for u := range alphaA {
			x1 := multiple(mult[i:], n, alphaA[u])
			x2 := multiple(mult[m*n+i:], n, alphaB[u])
			e := &table[i*t+u]
			switch inv := &zs[i*t+u]; {
			case x1.Inf:
				*e = x2
			case x2.Inf:
				*e = x1
			case inv.IsZero():
				q := ec.FromAffine64(x1)
				q.AddMixed(&x2)
				*e = q.Affine()
			default:
				// λ = (y₁+y₂)/(x₁+x₂), x₃ = λ²+λ+x₁+x₂ (a = 0),
				// y₃ = λ(x₁+x₃)+x₃+y₁.
				var l gf233.Elem64
				gf233.AddTo(&l, &x1.Y, &x2.Y)
				gf233.MulTo(&l, &l, inv)
				gf233.SqrTo(&e.X, &l)
				gf233.AddTo(&e.X, &e.X, &l)
				gf233.AddTo(&e.X, &e.X, &x1.X)
				gf233.AddTo(&e.X, &e.X, &x2.X)
				gf233.AddTo(&e.Y, &x1.X, &e.X)
				gf233.MulTo(&e.Y, &e.Y, &l)
				gf233.AddTo(&e.Y, &e.Y, &e.X)
				gf233.AddTo(&e.Y, &e.Y, &x1.Y)
				e.Inf = false
			}
		}
	}
	return table
}

// multiple returns c·B from mult, where mult[(j−1)·stride] = j·B for
// 1 ≤ j ≤ |c|; c = 0 gives ∞.
func multiple(mult []ec.Affine64, stride int, c int64) ec.Affine64 {
	switch {
	case c > 0:
		return mult[int(c-1)*stride]
	case c < 0:
		return mult[int(-c-1)*stride].Neg()
	}
	return ec.Affine64{Inf: true}
}

func abs64(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// ScalarMult computes k·P with the paper's random-point method, using
// only this Scratch's buffers. Semantics match core.ScalarMult (P must
// lie in the prime-order subgroup).
func (s *Scratch) ScalarMult(k *big.Int, p ec.Affine) ec.Affine {
	return s.scalarMultW(k, p, WRandom)
}

func (s *Scratch) scalarMultW(k *big.Int, p ec.Affine, w int) ec.Affine {
	return s.scalarMultLD64W(k, p, w).Affine().Affine()
}

// ScalarMultLD64 is ScalarMult stopping short of the final affine
// conversion: the result is left projective so a batch caller can
// amortise the inversion across many requests with InvBatch64.
func (s *Scratch) ScalarMultLD64(k *big.Int, p ec.Affine) ec.LD64 {
	return s.scalarMultLD64W(k, p, WRandom)
}

func (s *Scratch) scalarMultLD64W(k *big.Int, p ec.Affine, w int) ec.LD64 {
	if p.Inf || k.Sign() == 0 {
		return ec.LD64Infinity
	}
	digits := s.rec.Recode(k, w)
	return scalarMultDigits64(digits, s.alphaTable(p.To64(), w))
}

// ScalarBaseMult computes k·G on the generator comb using this
// Scratch's buffers.
func (s *Scratch) ScalarBaseMult(k *big.Int) ec.Affine {
	return s.ScalarBaseMultLD64(k).Affine().Affine()
}

// ScalarBaseMultLD64 is ScalarBaseMult left projective for batched
// normalisation.
func (s *Scratch) ScalarBaseMultLD64(k *big.Int) ec.LD64 {
	return generatorComb().scalarMultLD64(s, k)
}

// scalarMultLD64 evaluates the comb for k·P entirely in the 64-bit
// representation, reusing the Scratch's modulus buffer for the
// reduction of k. The comb table itself is frozen and shared — see the
// registry notes in registry.go.
func (c *Comb) scalarMultLD64(s *Scratch, k *big.Int) ec.LD64 {
	if c.point.Inf {
		return ec.LD64Infinity
	}
	r := s.mod.Mod(k, ec.Order)
	if r.Sign() == 0 {
		return ec.LD64Infinity
	}
	q := ec.LD64Infinity
	for col := c.d - 1; col >= 0; col-- {
		q.Double()
		if u := c.column(r, col); u != 0 {
			q.AddMixed(&c.table64[u-1])
		}
	}
	return q
}
