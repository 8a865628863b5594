package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf233"
)

// naiveMult computes c·P by plain binary double-and-add in LD64 — an
// exact integer multiple valid for any curve point, used as the
// reference for the exact-recoding point terms.
func naiveMult(c uint64, p ec.Affine64) ec.Affine64 {
	acc := ec.LD64Infinity
	for i := 63; i >= 0; i-- {
		acc.Double()
		if c>>i&1 == 1 {
			acc.AddMixed(&p)
		}
	}
	return acc.Affine()
}

// randOffSubgroup finds an on-curve point outside the prime-order
// subgroup (sect233k1 has cofactor 4, so most decompressed abscissae
// give one).
func randOffSubgroup(t *testing.T, rng *rand.Rand) ec.Affine {
	t.Helper()
	for tries := 0; tries < 1000; tries++ {
		var xb [gf233.ByteLen]byte
		rng.Read(xb[:])
		xb[0] &= 1 // keep within 233 bits
		x, ok := gf233.FromBytes(xb)
		if !ok {
			continue
		}
		p, err := ec.Decompress(x, uint32(rng.Intn(2)))
		if err != nil {
			continue
		}
		if !p.Inf && !InSubgroup(p) {
			return p
		}
	}
	t.Fatal("no off-subgroup point found")
	return ec.Infinity
}

func TestMultiScalarVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var ms MultiScalar
	for trial := 0; trial < 20; trial++ {
		u1 := new(big.Int).Rand(rng, ec.Order)
		u2 := new(big.Int).Rand(rng, ec.Order)
		u3 := new(big.Int).Rand(rng, ec.Order)
		q2 := ScalarBaseMult(new(big.Int).Rand(rng, ec.Order))
		q3 := ScalarBaseMult(new(big.Int).Rand(rng, ec.Order))
		fb := NewFixedBase(q3, WPrecomp)

		ms.Reset()
		ms.AddGen(u1)
		ms.AddAffine(u2, q2.To64())
		ms.AddFixed(u3, fb)
		want := ScalarBaseMult(u1).Add(ScalarMult(u2, q2)).Add(ScalarMult(u3, q3))

		nw := trial % 5
		for j := 0; j < nw; j++ {
			c := rng.Uint64() >> 1
			p := ScalarBaseMult(new(big.Int).Rand(rng, ec.Order))
			if j%2 == 0 {
				ms.AddWeighted(c, p.To64())
				want = want.Add(ScalarMult(new(big.Int).SetUint64(c), p))
			} else {
				ms.AddWeighted(c, p.To64().Neg())
				want = want.Add(ScalarMult(new(big.Int).SetUint64(c), p).Neg())
			}
		}

		got := ms.Eval().Affine().Affine()
		if got != want {
			t.Fatalf("trial %d: MultiScalar mismatch:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestMultiScalarZeroAndEdgeTerms pins the degenerate inputs: zero
// scalars and weights contribute nothing, a term set that cancels
// evaluates to infinity, and n·G (a zero term in disguise) vanishes.
func TestMultiScalarZeroAndEdgeTerms(t *testing.T) {
	var ms MultiScalar
	ms.Reset()
	ms.AddGen(big.NewInt(0))
	ms.AddWeighted(0, ScalarBaseMult(big.NewInt(7)).To64())
	ms.AddAffine(big.NewInt(5), ec.Affine64{Inf: true})
	if got := ms.Eval(); !got.IsInfinity() {
		t.Fatalf("zero terms: got %+v, want infinity", got)
	}

	ms.Reset()
	ms.AddGen(ec.Order)
	if got := ms.Eval(); !got.IsInfinity() {
		t.Fatalf("n·G: got %+v, want infinity", got)
	}

	// 5·G − 5·G through the two different term pipelines.
	g := ScalarBaseMult(big.NewInt(1))
	ms.Reset()
	ms.AddGen(big.NewInt(5))
	ms.AddWeighted(5, g.To64().Neg())
	if got := ms.Eval(); !got.IsInfinity() {
		t.Fatalf("cancelling terms: got %+v, want infinity", got)
	}
}

// TestMultiScalarExactOffSubgroup is the property the linear-
// combination verifier depends on: weighted point terms are exact
// integer multiples even for points OUTSIDE the prime-order subgroup
// (the exact recoding skips the mod-δ reduction that is only an
// identity on the subgroup).
func TestMultiScalarExactOffSubgroup(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var ms MultiScalar
	for trial := 0; trial < 10; trial++ {
		h := randOffSubgroup(t, rng).To64()
		c := rng.Uint64() >> 1
		ms.Reset()
		ms.AddWeighted(c, h)
		got := ms.Eval().Affine()
		if want := naiveMult(c, h); got != want {
			t.Fatalf("trial %d: off-subgroup c·P mismatch (c=%d)", trial, c)
		}
	}
}
