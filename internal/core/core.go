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
// The package also provides the constant-time Montgomery-ladder variant
// the paper lists as future work (§5).
package core

import (
	"errors"
	"io"
	"math/big"

	"repro/internal/ec"
	"repro/internal/gf233"
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
// It is the paper-faithful 32-bit reference that codegen, profile and
// the Backend32 paths consume, and the oracle every host table is
// tested against. Host tables come from Scratch.alphaTables, one
// affine addition per entry: 0.12 ms at w = 10 where this ladder
// construction takes ~1.4 ms (BenchmarkAlphaTable, 2-vCPU Xeon VM).
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

// scalarMultDigits evaluates Σ ξ_i τ^i applied to the precomputed table
// with a left-to-right Horner loop over the recoded digits: the
// accumulator is hit with the (cheap) Frobenius once per digit and a
// mixed LD-affine addition once per nonzero digit. On the 64-bit field
// backend the whole loop runs on 64-bit-native point arithmetic; the
// table conversion is a handful of word repacks, paid once per call.
func scalarMultDigits(digits []int8, table []ec.Affine) ec.Affine {
	if gf233.CurrentBackend() != gf233.Backend32 {
		t64 := make([]ec.Affine64, len(table))
		for i, p := range table {
			t64[i] = p.To64()
		}
		return scalarMultDigits64(digits, t64)
	}
	return scalarMultDigits32(digits, table)
}

// scalarMultDigits32 runs the Horner loop on the 32-bit reference
// point arithmetic.
func scalarMultDigits32[T koblitz.Digit](digits []T, table []ec.Affine) ec.Affine {
	q := ec.LDInfinity
	for i := len(digits) - 1; i >= 0; i-- {
		q = q.Frobenius()
		switch d := digits[i]; {
		case d > 0:
			q = q.AddMixed(table[d>>1])
		case d < 0:
			q = q.SubMixed(table[(-d)>>1])
		}
	}
	return q.Affine()
}

// scalarMultDigits64 is the 64-bit-native twin of the loop above.
func scalarMultDigits64[T koblitz.Digit](digits []T, table []ec.Affine64) ec.Affine {
	q := ec.LD64Infinity
	for i := len(digits) - 1; i >= 0; i-- {
		q = q.Frobenius()
		switch d := digits[i]; {
		case d > 0:
			q = q.AddMixed(table[d>>1])
		case d < 0:
			q = q.SubMixed(table[(-d)>>1])
		}
	}
	return q.Affine().Affine()
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
// used by the window-width ablation bench. On the 64-bit backend it
// runs on a pooled Scratch — recoding, table build and evaluation all
// reuse per-P steady-state buffers, so the call is allocation-free.
func ScalarMultW(k *big.Int, p ec.Affine, w int) ec.Affine {
	if p.Inf || k.Sign() == 0 {
		return ec.Infinity
	}
	if gf233.CurrentBackend() != gf233.Backend32 {
		s := getScratch()
		defer putScratch(s)
		return s.scalarMultW(k, p, w)
	}
	rho := koblitz.PartMod(k)
	digits := koblitz.WTNAF(rho, w)
	table := AlphaPoints(p, w)
	return scalarMultDigits(digits, table)
}

// FixedBase holds the per-point precomputation for fixed-point
// multiplication: the α_u·P table computed once and reused across
// multiplications (which is why the "TNAF Precomputation" row of
// Table 7 is zero for kG).
type FixedBase struct {
	w     int
	point ec.Affine
	table []ec.Affine
	// table64 is the table the 64-bit loops read; table is its 32-bit
	// view for the reference backend, nil for w > koblitz.MaxW.
	table64 []ec.Affine64
}

// NewFixedBase builds the width-w precomputation for p through
// Scratch.alphaTables in the 64-bit representation; the 32-bit view
// is a conversion of that table. Wide tables (w > koblitz.MaxW) exist for
// the joint verifier's 64-bit evaluation only, so they carry no 32-bit
// view — for a server precomputing per-key verification tables that
// halves the retained memory.
func NewFixedBase(p ec.Affine, w int) *FixedBase {
	s := getScratch()
	defer putScratch(s)
	fb := &FixedBase{w: w, point: p}
	s.alphaTables(&fb.table64, []ec.Affine64{p.To64()}, w)
	if w <= koblitz.MaxW {
		fb.table = make([]ec.Affine, len(fb.table64))
		for i, q := range fb.table64 {
			fb.table[i] = q.Affine()
		}
	}
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
// safe; on the 64-bit backend the recoding runs on a pooled Scratch
// and the call is allocation-free. Wide tables (w > koblitz.MaxW, the
// joint verifier's) evaluate through the int16 recoding pipeline on
// the 64-bit backend and through the generic per-call path on the
// 32-bit reference.
func (fb *FixedBase) ScalarMult(k *big.Int) ec.Affine {
	if fb.point.Inf || k.Sign() == 0 {
		return ec.Infinity
	}
	if gf233.CurrentBackend() != gf233.Backend32 {
		s := getScratch()
		defer putScratch(s)
		if fb.w > koblitz.MaxW {
			digits := s.rec.RecodeWide(k, fb.w)
			return scalarMultDigits64(digits, fb.table64)
		}
		digits := s.rec.Recode(k, fb.w)
		return scalarMultDigits64(digits, fb.table64)
	}
	if fb.w > koblitz.MaxW {
		// The int8 WTNAF cannot express wide digits; the reference
		// backend answers through the ordinary per-call method instead
		// (identical results, it just ignores the table).
		return ScalarMult(k, fb.point)
	}
	rho := koblitz.PartMod(k)
	digits := koblitz.WTNAF(rho, fb.w)
	return scalarMultDigits32(digits, fb.table)
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

// ScalarMultLadder computes k·P with the López-Dahab x-coordinate
// Montgomery ladder (Hankerson et al. Alg. 3.40), the constant-time
// algorithm the paper's future-work section (§5) proposes against
// power-analysis attacks: every ladder step performs the same
// add-and-double work regardless of the key bit.
func ScalarMultLadder(k *big.Int, p ec.Affine) ec.Affine {
	if p.Inf || k.Sign() == 0 {
		return ec.Infinity
	}
	if k.Sign() < 0 {
		return ScalarMultLadder(new(big.Int).Neg(k), p.Neg())
	}
	if p.X == gf233.Zero {
		// Order-2 point: k·P = P for odd k, ∞ for even.
		if k.Bit(0) == 1 {
			return p
		}
		return ec.Infinity
	}
	x, y := p.X, p.Y
	// (X1:Z1) tracks j·P, (X2:Z2) tracks (j+1)·P.
	x1, z1 := x, gf233.One
	x2 := gf233.Add(gf233.SqrN(x, 2), ec.B) // x⁴ + b
	z2 := gf233.Sqr(x)
	for i := k.BitLen() - 2; i >= 0; i-- {
		if k.Bit(i) == 1 {
			x1, z1 = madd(x, x1, z1, x2, z2)
			x2, z2 = mdouble(x2, z2)
		} else {
			x2, z2 = madd(x, x2, z2, x1, z1)
			x1, z1 = mdouble(x1, z1)
		}
	}
	return mxy(x, y, x1, z1, x2, z2)
}

// mdouble doubles in the x-only Montgomery representation:
// X' = X⁴ + b·Z⁴, Z' = X²·Z².
func mdouble(x1, z1 gf233.Elem) (gf233.Elem, gf233.Elem) {
	xx := gf233.Sqr(x1)
	zz := gf233.Sqr(z1)
	// b = 1 for sect233k1.
	return gf233.Add(gf233.Sqr(xx), gf233.Sqr(zz)), gf233.Mul(xx, zz)
}

// madd adds two x-only representations whose difference is the base
// point with abscissa x: Z' = (X1Z2 + X2Z1)², X' = x·Z' + X1Z2·X2Z1.
func madd(x, x1, z1, x2, z2 gf233.Elem) (gf233.Elem, gf233.Elem) {
	a := gf233.Mul(x1, z2)
	b := gf233.Mul(x2, z1)
	z3 := gf233.Sqr(gf233.Add(a, b))
	x3 := gf233.Add(gf233.Mul(x, z3), gf233.Mul(a, b))
	return x3, z3
}

// mxy recovers the affine result from the two ladder legs
// (Hankerson et al. Alg. 3.40 step 3):
//
//	x_k = X1/Z1
//	y_k = (x + x_k)·[(X1 + xZ1)(X2 + xZ2) + (x² + y)·Z1Z2] / (x·Z1Z2) + y
func mxy(x, y, x1, z1, x2, z2 gf233.Elem) ec.Affine {
	if z1 == gf233.Zero {
		return ec.Infinity
	}
	if z2 == gf233.Zero {
		// (k+1)·P = ∞, so k·P = −P = (x, x+y).
		return ec.Affine{X: x, Y: gf233.Add(x, y)}
	}
	xk, _ := gf233.Div(x1, z1)
	t1 := gf233.Add(x1, gf233.Mul(x, z1))
	t2 := gf233.Add(x2, gf233.Mul(x, z2))
	t3 := gf233.Add(gf233.Sqr(x), y)
	z1z2 := gf233.Mul(z1, z2)
	num := gf233.Add(gf233.Mul(t1, t2), gf233.Mul(t3, z1z2))
	den := gf233.Mul(x, z1z2)
	frac, _ := gf233.Div(num, den)
	yk := gf233.Add(gf233.Mul(gf233.Add(x, xk), frac), y)
	return ec.Affine{X: xk, Y: yk}
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
	// evaluators (ct.go, modn_ct.go): no secret-dependent branches or
	// table addresses, at roughly 2-3× the fast path's cost. Results
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
	byteLen := (ec.Order.BitLen() + 7) / 8
	buf := make([]byte, byteLen)
	for tries := 0; tries < 1000; tries++ {
		if _, err := io.ReadFull(rand, buf); err != nil {
			return nil, errors.Join(ErrRandom, err)
		}
		d := new(big.Int).SetBytes(buf)
		// Strip excess bits above the order's bit length.
		d.Rsh(d, uint(8*byteLen-ec.Order.BitLen()))
		if CheckScalar(d) != nil {
			continue
		}
		if ct {
			return &PrivateKey{D: d, Public: ScalarBaseMultCT(d), ConstTime: true}, nil
		}
		return &PrivateKey{D: d, Public: ScalarBaseMult(d)}, nil
	}
	return nil, ErrRandom
}
