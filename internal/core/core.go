// Package core implements the paper's primary contribution at the
// system level: fast sect233k1 point multiplication on top of the
// LD-with-fixed-registers field arithmetic.
//
// Random-point multiplication k·P uses the left-to-right width-w TNAF
// method with w = 4; fixed-point multiplication k·G uses w = 6 with a
// precomputed table of α_u·G (§4.2.2 of the paper). Point additions are
// done in mixed LD-affine coordinates, so a full multiplication costs a
// single field inversion (the final normalisation).
//
// The constant-time evaluators of the hardened path live in ct.go: the
// x-only Montgomery ladder the paper lists as future work (§5), for
// every secret variable-base multiplication, and a masked-scan comb for
// k·G.
package core

import (
	"errors"
	"io"
	"math/big"

	"repro/internal/ec"
	"repro/internal/koblitz"
)

// Window widths selected by the paper (§4.2.2).
const (
	// WRandom is the wTNAF width for random-point multiplication (kP).
	WRandom = 4
	// WFixed is the wTNAF width for fixed-point multiplication (kG).
	WFixed = 6
)

// AlphaPoints precomputes the table P_u = α_u·P for odd u < 2^(w−1),
// indexed by u>>1 — the "TNAF Precomputation" phase of Table 7 (16
// points for w = 6, 4 points for w = 4). The table entries are returned
// in affine coordinates so the main loop can use mixed addition.
//
// It is the paper-faithful 32-bit reference that codegen and profile
// consume, and the oracle every host table is tested against. Host
// tables come from Scratch.alphaTables, one affine addition per entry:
// 0.12 ms at w = 10 where this ladder construction takes ~1.4 ms
// (BenchmarkAlphaTable, 2-vCPU Xeon VM).
func AlphaPoints(p ec.Affine, w int) []ec.Affine {
	alphas := koblitz.Alpha(w)
	tp := p.Frobenius()
	// The only affine additions (one inversion each): P+τP and P−τP,
	// shared by every table entry's joint ladder below.
	sum := p.Add(tp)
	dif := p.Add(tp.Neg())
	points := make([]ec.LD, len(alphas))
	for i, a := range alphas {
		// α_u = a + b·τ, so P_u = a·P + b·τ(P).
		points[i] = alphaPointLD(a, p, tp, sum, dif)
	}
	return normalizeLD(points)
}

// alphaPointLD computes (a + b·τ)·P = a·P + b·τ(P) with a Shamir joint
// double-and-add over |a| and |b| in LD coordinates, so the whole α
// table costs no inversions beyond the two shared combination points.
func alphaPointLD(al koblitz.ZTau, p, tp, sum, dif ec.Affine) ec.LD {
	sa, sb := al.A.Sign(), al.B.Sign()
	pa, pb := p, tp
	if sa < 0 {
		pa = pa.Neg()
	}
	if sb < 0 {
		pb = pb.Neg()
	}
	// both = pa + pb, assembled from the two precomputed sums.
	var both ec.Affine
	switch {
	case sa >= 0 && sb >= 0:
		both = sum
	case sa < 0 && sb < 0:
		both = sum.Neg()
	case sa >= 0:
		both = dif
	default:
		both = dif.Neg()
	}
	aa := new(big.Int).Abs(al.A)
	ab := new(big.Int).Abs(al.B)
	r := ec.LDInfinity
	for i := max(aa.BitLen(), ab.BitLen()) - 1; i >= 0; i-- {
		r = r.Double()
		switch {
		case aa.Bit(i) == 1 && ab.Bit(i) == 1:
			r = r.AddMixed(both)
		case aa.Bit(i) == 1:
			r = r.AddMixed(pa)
		case ab.Bit(i) == 1:
			r = r.AddMixed(pb)
		}
	}
	return r
}

// scalarMultDigits64 evaluates Σ ξ_i τ^i applied to the precomputed
// table with a left-to-right Horner loop over the recoded digits: one
// τ per digit position and a mixed LD-affine addition per nonzero
// digit. The τ's are lazy: the loop counts them across zero digits and
// applies the power in one FrobeniusN just before the next addition
// (and once at the end), which squares each coordinate exactly as
// often, in the same order, as one τ per position would. The digit
// pattern steers the control flow, so this loop is for public or
// variable-time scalars only (secret ones take the ladder in ct.go).
// The result is left projective so batch callers can share the final
// inversion.
func scalarMultDigits64[T koblitz.Digit](digits []T, table []ec.Affine64) ec.LD64 {
	q := ec.LD64Infinity
	k := 0 // τ's owed to q
	for i := len(digits) - 1; i >= 0; i-- {
		k++
		d := digits[i]
		if d == 0 {
			continue
		}
		q.FrobeniusN(k)
		k = 0
		if d > 0 {
			q.AddMixed(&table[d>>1])
		} else {
			q.SubMixed(&table[(-d)>>1])
		}
	}
	q.FrobeniusN(k)
	return q
}

// ScalarMult computes k·P with the paper's random-point method: partial
// reduction of k modulo δ, width-4 TNAF recoding, and a τ-and-add loop
// in mixed LD-affine coordinates.
//
// P must lie in the prime-order subgroup: the partial reduction relies
// on δ annihilating that subgroup. Points outside it (the curve has
// cofactor 4) give unrelated results — validate untrusted points first
// (see internal/ecdh.Validate).
func ScalarMult(k *big.Int, p ec.Affine) ec.Affine {
	return ScalarMultW(k, p, WRandom)
}

// ScalarMultW is ScalarMult with an explicit window width w ∈ [2, 8],
// used by the window-width ablation bench. It runs on a pooled
// Scratch — recoding, table build and evaluation all reuse per-P
// steady-state buffers, so the call is allocation-free.
func ScalarMultW(k *big.Int, p ec.Affine, w int) ec.Affine {
	if p.Inf || k.Sign() == 0 {
		return ec.Infinity
	}
	s := getScratch()
	defer putScratch(s)
	return s.scalarMultW(k, p, w)
}

// FixedBase holds the per-point precomputation for fixed-point
// multiplication: the α_u·P table computed once and reused across
// multiplications (which is why the "TNAF Precomputation" row of
// Table 7 is zero for kG).
type FixedBase struct {
	w       int
	point   ec.Affine
	table64 []ec.Affine64
}

// NewFixedBase builds the width-w precomputation for p through
// Scratch.alphaTables in the 64-bit representation. Widths past
// koblitz.MaxW (up to MaxWide) serve the joint verifier's per-key
// tables.
func NewFixedBase(p ec.Affine, w int) *FixedBase {
	s := getScratch()
	defer putScratch(s)
	fb := &FixedBase{w: w, point: p}
	s.alphaTables(&fb.table64, []ec.Affine64{p.To64()}, w)
	return fb
}

// Point returns the fixed point this table belongs to.
func (fb *FixedBase) Point() ec.Affine { return fb.point }

// W returns the window width of the table.
func (fb *FixedBase) W() int { return fb.w }

// TableSize returns the number of precomputed points.
func (fb *FixedBase) TableSize() int { return len(fb.table64) }

// ScalarMult computes k·P for the fixed point using the precomputed
// table. The table is frozen at construction, so concurrent calls are
// safe; the recoding runs on a pooled Scratch and the call is
// allocation-free. Wide tables (w > koblitz.MaxW, the joint
// verifier's) evaluate through the int16 recoding pipeline.
func (fb *FixedBase) ScalarMult(k *big.Int) ec.Affine {
	if fb.point.Inf || k.Sign() == 0 {
		return ec.Infinity
	}
	s := getScratch()
	defer putScratch(s)
	if fb.w > koblitz.MaxW {
		return scalarMultDigits64(s.rec.RecodeWide(k, fb.w), fb.table64).Affine().Affine()
	}
	return scalarMultDigits64(s.rec.Recode(k, fb.w), fb.table64).Affine().Affine()
}

// ScalarBaseMult computes k·G for the generator. On the host it runs
// the fixed-base comb (comb.go); ScalarBaseMultTNAF is the
// paper-faithful wTNAF w=6 method whose cycle cost internal/profile
// models for the Cortex-M0+.
func ScalarBaseMult(k *big.Int) ec.Affine {
	return generatorComb().ScalarMult(k)
}

// ScalarBaseMultTNAF computes k·G with the paper's fixed-point method
// (wTNAF, w = 6, precomputed table) — the reference path the comb is
// differentially tested against.
func ScalarBaseMultTNAF(k *big.Int) ec.Affine {
	return genBase().ScalarMult(k)
}

// ErrRandom is returned when the random source fails during key
// generation.
var ErrRandom = errors.New("core: random source failure")

// PrivateKey is a sect233k1 key pair.
type PrivateKey struct {
	// D is the secret scalar, uniform in [1, n−1].
	D *big.Int
	// Public is D·G.
	Public ec.Affine
	// ConstTime routes every secret-scalar operation with this key —
	// signing, ECDH, key derivation — through the constant-time
	// evaluators (ct.go): no secret-dependent branches or table
	// addresses. One-shot ECDH then costs 1.5–1.7× the fast path
	// and one-shot signing ~2.3× (README, "Hardened mode"). Results
	// are bit-identical to the fast path. Verification, which handles
	// only public inputs, is unaffected.
	ConstTime bool
}

// GenerateKey draws a key pair from the given random source using
// rejection sampling (so D is uniform modulo the group order). The
// public key is computed with the paper's fixed-point method.
func GenerateKey(rand io.Reader) (*PrivateKey, error) {
	return generateKey(rand, false)
}

// GenerateKeyCT is GenerateKey on the hardened path: the same
// rejection sampler consuming the same bytes from rand (so the drawn
// scalar is identical for a given stream), with the public point
// derived by the constant-time comb. The returned key has ConstTime
// set, so all subsequent secret-scalar operations stay hardened.
func GenerateKeyCT(rand io.Reader) (*PrivateKey, error) {
	return generateKey(rand, true)
}

func generateKey(rand io.Reader, ct bool) (*PrivateKey, error) {
	d := new(big.Int)
	if err := SampleScalar(d, rand, new([32]byte)); err != nil {
		return nil, err
	}
	if ct {
		return &PrivateKey{D: d, Public: ScalarBaseMultCT(d), ConstTime: true}, nil
	}
	return &PrivateKey{D: d, Public: ScalarBaseMult(d)}, nil
}

// SampleScalar sets k to a scalar uniform in [1, n−1] drawn from rand
// by rejection sampling, reading through buf: the one sampler behind
// every private key and signing nonce. It zeroes buf before it
// returns, and a caller that reuses k and buf draws without
// allocating. A rejected candidate's bytes are independent of the
// accepted scalar.
func SampleScalar(k *big.Int, rand io.Reader, buf *[32]byte) error {
	defer clear(buf[:])
	byteLen := (ec.Order.BitLen() + 7) / 8
	for tries := 0; tries < 1000; tries++ {
		if _, err := io.ReadFull(rand, buf[:byteLen]); err != nil {
			return errors.Join(ErrRandom, err)
		}
		k.SetBytes(buf[:byteLen])
		// Strip excess bits above the order's bit length.
		k.Rsh(k, uint(8*byteLen-ec.Order.BitLen()))
		if CheckScalar(k) == nil {
			return nil
		}
	}
	return ErrRandom
}
