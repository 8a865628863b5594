package core

import (
	"math/big"
	"math/bits"

	"repro/internal/ec"
	"repro/internal/koblitz"
)

// Cross-batch multi-scalar evaluation: one combined sum
//
//	S = Σ uⱼ·Tⱼ + Σ cᵢ·Pᵢ
//
// over a single shared Frobenius loop, where the uⱼ are full-width
// scalars against precomputed (or per-call) wTNAF tables — the
// generator at width WJoint, per-key tables at their own widths — and
// the cᵢ are small integer weights against raw points carrying no
// table at all. This is the kernel under the batch verifier's
// randomised linear-combination check
//
//	Σρᵢsᵢ⁻¹eᵢ·G + Σ_Q (Σ_{i: Qᵢ=Q} ρᵢsᵢ⁻¹rᵢ)·Q − Σρᵢ·Rᵢ = ∞ :
//
// the generator terms of a whole batch collapse into ONE scalar, the
// per-key terms collapse into one scalar per distinct key, and only
// the recovered Rᵢ remain as per-request point terms — handled by a
// bucketed (Pippenger-style) accumulation over their τ-digits, one
// bucket per window digit value instead of one ladder per point.
//
// Table terms ride the accumulator directly: one mixed addition per
// nonzero digit, exactly like the joint verifier's ladder. Point terms
// recode their weights with the EXACT integer recoding
// (koblitz.RecodeIntInto — no partial reduction, so the digit string
// evaluates to cᵢ in Z[τ], valid for any curve point including ones
// outside the prime-order subgroup, which recovered R points may well
// be under attack). Their digits index msBuckets shared bucket
// accumulators: position i with digit d adds ±τ-aligned Pᵢ into bucket
// |d|>>1, each bucket tracking the τ alignment by owing the same
// per-position τ as the main accumulator. After the loop the buckets
// fold back as Σ_u α_u·B_u with α_u = a_u + b_u·τ, evaluated as one
// joint binary ladder over the (tiny) α coordinates.
//
// Cost shape per batch of N point terms with ~2b-digit weights:
// ~2b/(w+1) bucket additions per point, plus the τ chains — m+a τ's on
// the accumulator and up to 2b on each of the msBuckets buckets. Every
// chain is lazy: the τ's it owes are counted and settled as one τ^k
// (ec.LD64.FrobeniusN, three interleaved squaring chains) just before
// its next addition, so a chain costs one kernel call per addition
// rather than three squaring calls per position. That is against N
// full joint ladders for the per-request path. The weights being short
// (63 bits → ~126 digits) is what keeps the bucket chains affordable.
//
// Like the rest of the τ-adic pipeline the evaluator is 64-bit-native
// (ec.LD64/ec.Affine64), which runs bit-identically on every field
// backend. A MultiScalar is NOT safe for concurrent use; the zero
// value is ready to use and retains its buffers across Reset cycles.

// msBucketW is the wTNAF width of the point-term weight recodings, and
// msBuckets the resulting bucket count (one per odd digit magnitude).
// Wider halves the additions per point but doubles the number of
// bucket τ chains; w = 5 balances the two at the weight lengths and
// batch sizes the verifier uses (see BenchmarkBatchVerify).
const (
	msBucketW = 5
	msBuckets = 1 << (msBucketW - 2)
)

// msTable is one full-width term: a recoded scalar against a wTNAF
// table. The digits buffer is slot-owned and reused across batches;
// own backs per-call tables built for table-less points.
type msTable struct {
	digits []int16
	table  []ec.Affine64
	own    []ec.Affine64
}

// msPoint is one weighted raw-point term: an exact-integer weight
// recoding against a single affine point (pre-negated by the caller
// when the term is subtracted).
type msPoint struct {
	digits []int16
	pt     ec.Affine64
}

// MultiScalar accumulates the terms of one combined multi-scalar sum
// and evaluates them in a single shared pass. Terms are added between
// Reset and Eval; every buffer is retained for reuse, so steady-state
// batches allocate nothing.
type MultiScalar struct {
	rec    koblitz.Scratch
	sc     Scratch // α-table staging and batched normalisations
	terms  []msTable
	pts    []msPoint
	nt, np int
	maxT   int // longest table-term digit string
	maxP   int // longest point-term digit string

	buckets [msBuckets]ec.LD64
	bA      [msBuckets]ec.Affine64
}

// Reset drops all accumulated terms, keeping every buffer.
func (ms *MultiScalar) Reset() {
	ms.nt, ms.np = 0, 0
	ms.maxT, ms.maxP = 0, 0
}

func (ms *MultiScalar) grabTerm() *msTable {
	if ms.nt == len(ms.terms) {
		ms.terms = append(ms.terms, msTable{})
	}
	t := &ms.terms[ms.nt]
	ms.nt++
	return t
}

func (ms *MultiScalar) grabPoint() *msPoint {
	if ms.np == len(ms.pts) {
		ms.pts = append(ms.pts, msPoint{})
	}
	p := &ms.pts[ms.np]
	ms.np++
	return p
}

// AddGen adds u·G over the registry's frozen width-WJoint generator
// table. u is reduced via the usual partial reduction, so the term is
// exact modulo the group order (G generates the prime-order subgroup).
func (ms *MultiScalar) AddGen(u *big.Int) {
	if u.Sign() == 0 {
		return
	}
	t := ms.grabTerm()
	t.digits = ms.rec.RecodeInto(u, WJoint, t.digits)
	t.table = genJoint().table64
	ms.maxT = max(ms.maxT, len(t.digits))
}

// AddFixed adds u·Q over Q's precomputed table (same subgroup contract
// as JointScalarMultFixedLD64: exact only for Q in the prime-order
// subgroup). fb is read-only here.
func (ms *MultiScalar) AddFixed(u *big.Int, fb *FixedBase) {
	if fb.point.Inf || u.Sign() == 0 {
		return
	}
	t := ms.grabTerm()
	t.digits = ms.rec.RecodeInto(u, fb.w, t.digits)
	t.table = fb.table64
	ms.maxT = max(ms.maxT, len(t.digits))
}

// AddAffine adds u·Q for a table-less Q, building a per-call
// width-WRandom table into the term's own buffer (subgroup contract as
// AddFixed).
func (ms *MultiScalar) AddAffine(u *big.Int, q ec.Affine64) {
	if q.Inf || u.Sign() == 0 {
		return
	}
	t := ms.grabTerm()
	t.digits = ms.rec.RecodeInto(u, WRandom, t.digits)
	t.table = ms.sc.alphaTables(&t.own, []ec.Affine64{q}, WRandom)
	ms.maxT = max(ms.maxT, len(t.digits))
}

// AddWeighted adds c·q for a small non-negative integer weight c, via
// the exact integer recoding: the term is exact for ANY curve point q,
// in or out of the prime-order subgroup. Subtracted terms pass the
// negated point (q.Neg()).
func (ms *MultiScalar) AddWeighted(c uint64, q ec.Affine64) {
	if q.Inf || c == 0 {
		return
	}
	p := ms.grabPoint()
	p.digits = ms.rec.RecodeIntInto(c, msBucketW, p.digits)
	p.pt = q
	ms.maxP = max(ms.maxP, len(p.digits))
}

// Eval computes the accumulated sum, left projective so the caller can
// fold the final inversion into a batch-wide one (or just test for
// infinity, which needs no inversion at all). The term set stays in
// place; call Reset before starting the next batch.
func (ms *MultiScalar) Eval() ec.LD64 {
	terms, pts := ms.terms[:ms.nt], ms.pts[:ms.np]
	for u := range ms.buckets {
		ms.buckets[u] = ec.LD64Infinity
	}
	acc := ec.LD64Infinity
	kAcc := 0             // τ's owed to acc
	var kB [msBuckets]int // τ's owed to each bucket
	for i := max(ms.maxT, ms.maxP) - 1; i >= 0; i-- {
		kAcc++
		if i < ms.maxP {
			// The buckets advance through the same τ chain as the main
			// accumulator, so a digit at position i lands τ-aligned.
			// Each bucket settles its own count just before its next
			// addition; a still-empty bucket drops it (τ∞ = ∞).
			for u := range kB {
				kB[u]++
			}
			for j := range pts {
				p := &pts[j]
				if i >= len(p.digits) || p.digits[i] == 0 {
					continue
				}
				d := p.digits[i]
				u := max(d, -d) >> 1
				b := &ms.buckets[u]
				if !b.IsInfinity() {
					*b = b.FrobeniusN(kB[u])
				}
				kB[u] = 0
				if d > 0 {
					*b = b.AddMixed(p.pt)
				} else {
					*b = b.SubMixed(p.pt)
				}
			}
		}
		for j := range terms {
			t := &terms[j]
			if i >= len(t.digits) || t.digits[i] == 0 {
				continue
			}
			acc = acc.FrobeniusN(kAcc)
			kAcc = 0
			if d := t.digits[i]; d > 0 {
				acc = acc.AddMixed(t.table[d>>1])
			} else {
				acc = acc.SubMixed(t.table[(-d)>>1])
			}
		}
	}
	// Settle what the chains still owe for the positions after their
	// last addition.
	acc = acc.FrobeniusN(kAcc)
	if ms.np > 0 {
		for u := range ms.buckets {
			if !ms.buckets[u].IsInfinity() {
				ms.buckets[u] = ms.buckets[u].FrobeniusN(kB[u])
			}
		}
		acc = ms.foldBuckets(acc)
	}
	return acc
}

// foldBuckets adds Σ_u α_u·B_u into acc: one batched normalisation of
// the buckets, then a single joint binary double-and-add across ALL
// buckets at once over the bits of the α coordinates (α_u = a_u+b_u·τ,
// both tiny), using B_u and τB_u as mixed-addition operands. τ and the
// α endomorphisms commute, so applying α after the per-position τ
// chain is exact.
func (ms *MultiScalar) foldBuckets(acc ec.LD64) ec.LD64 {
	ms.sc.normalize64(ms.bA[:], ms.buckets[:])
	alphaA, alphaB := koblitz.AlphaCoeffs(msBucketW)
	maxBit := 0
	for u := range ms.bA {
		if ms.bA[u].Inf {
			continue
		}
		maxBit = max(maxBit, bits.Len64(abs64(alphaA[u])), bits.Len64(abs64(alphaB[u])))
	}
	t := ec.LD64Infinity
	for bit := maxBit - 1; bit >= 0; bit-- {
		t = t.Double()
		for u := range ms.bA {
			if ms.bA[u].Inf {
				continue
			}
			if a := alphaA[u]; abs64(a)>>bit&1 == 1 {
				p := ms.bA[u]
				if a < 0 {
					p = p.Neg()
				}
				t = t.AddMixed(p)
			}
			if b := alphaB[u]; abs64(b)>>bit&1 == 1 {
				// τ(−P) = −τ(P): squaring is additive in char 2.
				p := ms.bA[u].Frobenius()
				if b < 0 {
					p = p.Neg()
				}
				t = t.AddMixed(p)
			}
		}
	}
	if t.IsInfinity() {
		return acc
	}
	// One inversion folds the bucket sum back into the accumulator; it
	// is per-batch, not per-request, so it amortises with everything
	// else.
	return acc.AddMixed(t.Affine())
}
