package ec

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/gf233"
)

// Differential tests holding the 64-bit-native point arithmetic
// (ld64.go) bit-identical to the 32-bit LD reference path.

func randPoint64(rnd *rand.Rand) Affine {
	k := new(big.Int).Rand(rnd, Order)
	if k.Sign() == 0 {
		k.SetInt64(1)
	}
	return ScalarMultGeneric(k, Gen())
}

// randLD lifts p to LD coordinates with a random unit Z, so the
// projective representatives differ from the trivial Z = 1 lift.
func randLD(p Affine, rnd *rand.Rand) LD {
	lam := gf233.Rand(rnd.Uint32)
	if lam.IsZero() {
		lam = gf233.One
	}
	return LD{
		X: gf233.Mul(p.X, lam),
		Y: gf233.Mul(p.Y, gf233.Sqr(lam)),
		Z: lam,
	}
}

func toLD64(p LD) LD64 {
	return LD64{
		X: gf233.ToElem64(p.X),
		Y: gf233.ToElem64(p.Y),
		Z: gf233.ToElem64(p.Z),
	}
}

func sameLD(t *testing.T, op string, got LD64, want LD) {
	t.Helper()
	if got.X.Elem() != want.X || got.Y.Elem() != want.Y || got.Z.Elem() != want.Z {
		t.Fatalf("%s: 64-bit port diverged from LD reference", op)
	}
}

func TestLD64MatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		p := randPoint64(rnd)
		q := randPoint64(rnd)
		lp := randLD(p, rnd)
		lp64 := toLD64(lp)
		q64 := q.To64()

		d := lp64
		d.Double()
		sameLD(t, "Double", d, lp.Double())
		a := lp64
		a.AddMixed(&q64)
		sameLD(t, "AddMixed", a, lp.AddMixed(q))
		a = lp64
		a.SubMixed(&q64)
		sameLD(t, "SubMixed", a, lp.SubMixed(q))
		// τ^k in one kernel call against k reference τ's, across the
		// n = 0 and single-step edges and a whole field-size chain.
		ref := lp
		done := 0
		for _, k := range []int{0, 1, 2, 7, 233} {
			for ; done < k; done++ {
				ref = ref.Frobenius()
			}
			f := lp64
			f.FrobeniusN(k)
			sameLD(t, fmt.Sprintf("FrobeniusN(%d)", k), f, ref)
		}
		if got := lp64.Affine().Affine(); !got.Equal(p) {
			t.Fatalf("Affine round trip: %v, want %v", got, p)
		}
	}
}

func TestLD64ExceptionalCases(t *testing.T) {
	rnd := rand.New(rand.NewSource(22))
	p := randPoint64(rnd)
	lp := FromAffine64(p.To64())

	// Identity operands.
	inf := LD64Infinity
	if inf.Double(); !inf.IsInfinity() {
		t.Fatal("2·∞ != ∞")
	}
	if inf.FrobeniusN(5); inf != LD64Infinity {
		t.Fatalf("τ^5(∞) = %v, want (1, 0, 0)", inf)
	}
	p64 := p.To64()
	inf.AddMixed(&p64)
	sameLD(t, "∞+q", inf, LDInfinity.AddMixed(p))
	q := lp
	if q.AddMixed(&Affine64{Inf: true}); !q.Affine().Affine().Equal(p) {
		t.Fatal("p + ∞ != p")
	}

	// q = p (mixed doubling) and q = -p (cancellation).
	q = lp
	q.AddMixed(&p64)
	sameLD(t, "p+p", q, FromAffine(p).AddMixed(p))
	q, neg := lp, p64.Neg()
	if q.AddMixed(&neg); !q.IsInfinity() {
		t.Fatal("p + (-p) != ∞")
	}
	q = lp
	if q.SubMixed(&p64); !q.IsInfinity() {
		t.Fatal("p - p != ∞")
	}

	// The order-2 point (0, 1) doubles to ∞.
	two := Affine{X: gf233.Zero, Y: gf233.One}
	q = FromAffine64(two.To64())
	if q.Double(); !q.IsInfinity() {
		t.Fatal("doubling the order-2 point did not give ∞")
	}

	// Affine64 negation round trip.
	if !p.To64().Neg().Affine().Equal(p.Neg()) {
		t.Fatal("Affine64.Neg mismatch")
	}
	if !(Affine64{Inf: true}).Neg().Inf {
		t.Fatal("-∞ != ∞")
	}
}

// BenchmarkFrobeniusN times τ^k of one LD64 point three ways: the
// three-chain kernel (FrobeniusN), three SqrN64 chains, and 3k
// separate Sqr64 calls (one eager τ per position).
func BenchmarkFrobeniusN(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	p := toLD64(randLD(randPoint64(rnd), rnd))
	for _, k := range []int{1, 5, 12} {
		b.Run(fmt.Sprintf("k=%d/kernel", k), func(b *testing.B) {
			q := p
			for i := 0; i < b.N; i++ {
				q.FrobeniusN(k)
			}
		})
		b.Run(fmt.Sprintf("k=%d/sqrn", k), func(b *testing.B) {
			q := p
			for i := 0; i < b.N; i++ {
				q = LD64{X: gf233.SqrN64(q.X, k), Y: gf233.SqrN64(q.Y, k), Z: gf233.SqrN64(q.Z, k)}
			}
		})
		b.Run(fmt.Sprintf("k=%d/sqr", k), func(b *testing.B) {
			q := p
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					q = LD64{X: gf233.Sqr64(q.X), Y: gf233.Sqr64(q.Y), Z: gf233.Sqr64(q.Z)}
				}
			}
		})
	}
}

// TestZeroAllocLD64 pins the in-place point operations at 0 allocs/op
// on both backends: their field temporaries live in the caller's frame
// and reach the kernels by address, so nothing may move to the heap.
func TestZeroAllocLD64(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	rnd := rand.New(rand.NewSource(23))
	r := toLD64(randLD(randPoint64(rnd), rnd))
	q := randPoint64(rnd).To64()
	var sink Affine64
	for _, be := range []gf233.Backend{gf233.Backend64, gf233.BackendCLMUL} {
		t.Run(be.String(), func(t *testing.T) {
			if !gf233.Supported(be) {
				t.Skip("backend not supported on this CPU")
			}
			prev := gf233.SetBackend(be)
			defer gf233.SetBackend(prev)
			checks := []struct {
				name string
				f    func()
			}{
				{"Double", func() { r.Double() }},
				{"AddMixed", func() { r.AddMixed(&q) }},
				{"SubMixed", func() { r.SubMixed(&q) }},
				{"FrobeniusN", func() { r.FrobeniusN(5) }},
				{"Affine", func() { sink = r.Affine() }},
			}
			for _, c := range checks {
				if allocs := testing.AllocsPerRun(200, c.f); allocs != 0 {
					t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
				}
			}
		})
	}
	_ = sink
}
