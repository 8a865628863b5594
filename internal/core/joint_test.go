package core

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf233"
)

// jointSeparate is the reference evaluation the joint ladder must
// match: two disjoint multiplications joined by an affine addition.
func jointSeparate(u1, u2 *big.Int, q ec.Affine) ec.Affine {
	return ScalarBaseMult(u1).Add(ScalarMult(u2, q))
}

// jointCases returns the deterministic scalar edge cases the issue
// calls out: 0, 1, n−1, n, n+1, values ≥ n, plus a spread of random
// scalars.
func jointCases(rnd *rand.Rand, n int) []*big.Int {
	cases := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(ec.Order, big.NewInt(1)),
		new(big.Int).Set(ec.Order),
		new(big.Int).Add(ec.Order, big.NewInt(1)),
		new(big.Int).Lsh(ec.Order, 1), // 2n, well past the order
	}
	for i := 0; i < n; i++ {
		cases = append(cases, new(big.Int).Rand(rnd, ec.Order))
	}
	return cases
}

// TestJointScalarMultMatchesSeparate sweeps the edge-case grid over
// both backends and both table paths (per-call and precomputed).
func TestJointScalarMultMatchesSeparate(t *testing.T) {
	rnd := rand.New(rand.NewSource(80))
	qk, err := GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	q := qk.Public
	fb := NewFixedBase(q, WPrecomp)
	cases := jointCases(rnd, 6)
	for _, bk := range []gf233.Backend{gf233.Backend64, gf233.BackendCLMUL} {
		prev := gf233.SetBackend(bk)
		for _, u1 := range cases {
			for _, u2 := range cases {
				want := jointSeparate(u1, u2, q)
				if got := JointScalarMult(u1, u2, q); !got.Equal(want) {
					t.Fatalf("%v: JointScalarMult(%v, %v) = %v, want %v", bk, u1, u2, got, want)
				}
				if got := JointScalarMultFixed(u1, u2, fb); !got.Equal(want) {
					t.Fatalf("%v: JointScalarMultFixed(%v, %v) diverged", bk, u1, u2)
				}
			}
		}
		gf233.SetBackend(prev)
	}
}

// TestJointScalarMultInfinity pins the degenerate-point corners: Q at
// infinity must reduce the joint product to u1·G on every path.
func TestJointScalarMultInfinity(t *testing.T) {
	rnd := rand.New(rand.NewSource(81))
	u1 := new(big.Int).Rand(rnd, ec.Order)
	u2 := new(big.Int).Rand(rnd, ec.Order)
	want := ScalarBaseMult(u1)
	if got := JointScalarMult(u1, u2, ec.Infinity); !got.Equal(want) {
		t.Fatalf("JointScalarMult with Q = ∞: got %v, want u1·G", got)
	}
	fb := NewFixedBase(ec.Infinity, WPrecomp)
	if got := JointScalarMultFixed(u1, u2, fb); !got.Equal(want) {
		t.Fatalf("JointScalarMultFixed with Q = ∞ diverged from u1·G")
	}
	// Both scalars zero: the identity.
	zero := new(big.Int)
	if got := JointScalarMult(zero, zero, ec.Gen()); !got.Inf {
		t.Fatalf("JointScalarMult(0, 0, G) = %v, want ∞", got)
	}
}

// TestFixedBaseWideScalarMult pins the wide-table FixedBase evaluation
// (w > 8, int16 digits) against the generic ladder on both backends —
// the registry's joint generator table and per-key Precompute tables
// go through this path.
func TestFixedBaseWideScalarMult(t *testing.T) {
	rnd := rand.New(rand.NewSource(82))
	qk, err := GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{9, WPrecomp, WJoint} {
		fb := NewFixedBase(qk.Public, w)
		for i := 0; i < 4; i++ {
			k := new(big.Int).Rand(rnd, ec.Order)
			want := ec.ScalarMultGeneric(k, qk.Public)
			for _, bk := range []gf233.Backend{gf233.Backend64, gf233.BackendCLMUL} {
				prev := gf233.SetBackend(bk)
				got := fb.ScalarMult(k)
				gf233.SetBackend(prev)
				if !got.Equal(want) {
					t.Fatalf("w=%d %v: wide FixedBase.ScalarMult diverged", w, bk)
				}
			}
		}
	}
}

// FuzzJointScalarMultVsSeparate feeds arbitrary 31-byte scalar
// material into both evaluations: the interleaved ladder must agree
// with ScalarBaseMult(u1).Add(ScalarMult(u2, Q)) for every input,
// including scalars ≥ n (both sides share the same partial-reduction
// semantics). The corpus seeds the issue's edge scalars explicitly.
func FuzzJointScalarMultVsSeparate(f *testing.F) {
	nm1 := new(big.Int).Sub(ec.Order, big.NewInt(1)).Bytes()
	np1 := new(big.Int).Add(ec.Order, big.NewInt(1)).Bytes()
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0}, []byte{1})
	f.Add(big.NewInt(1).Bytes(), nm1)
	f.Add(nm1, ec.Order.Bytes())
	f.Add(np1, big.NewInt(7).Bytes())
	f.Fuzz(func(t *testing.T, b1, b2 []byte) {
		if len(b1) > 31 || len(b2) > 31 {
			t.Skip()
		}
		u1 := new(big.Int).SetBytes(b1)
		u2 := new(big.Int).SetBytes(b2)
		// A fixed subgroup point: 11·G, derived once per process.
		q := fuzzJointPoint()
		want := jointSeparate(u1, u2, q)
		if got := JointScalarMult(u1, u2, q); !got.Equal(want) {
			t.Fatalf("joint(%x, %x) = (%v), separate = (%v)", b1, b2, got, want)
		}
		if got := JointScalarMultFixed(u1, u2, fuzzJointTable()); !got.Equal(want) {
			t.Fatalf("jointFixed(%x, %x) diverged from separate", b1, b2)
		}
	})
}

var (
	fuzzJointPoint = sync.OnceValue(func() ec.Affine {
		return ScalarBaseMult(big.NewInt(11))
	})
	fuzzJointTable = sync.OnceValue(func() *FixedBase {
		return NewFixedBase(fuzzJointPoint(), WPrecomp)
	})
)
