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

		sameLD(t, "Double", lp64.Double(), lp.Double())
		sameLD(t, "AddMixed", lp64.AddMixed(q64), lp.AddMixed(q))
		sameLD(t, "SubMixed", lp64.SubMixed(q64), lp.SubMixed(q))
		// τ^k in one kernel call against k reference τ's, across the
		// n = 0 and single-step edges and a whole field-size chain.
		ref := lp
		done := 0
		for _, k := range []int{0, 1, 2, 7, 233} {
			for ; done < k; done++ {
				ref = ref.Frobenius()
			}
			sameLD(t, fmt.Sprintf("FrobeniusN(%d)", k), lp64.FrobeniusN(k), ref)
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
	if !LD64Infinity.Double().IsInfinity() {
		t.Fatal("2·∞ != ∞")
	}
	if got := LD64Infinity.FrobeniusN(5); got != LD64Infinity {
		t.Fatalf("τ^5(∞) = %v, want (1, 0, 0)", got)
	}
	sameLD(t, "∞+q", LD64Infinity.AddMixed(p.To64()), LDInfinity.AddMixed(p))
	if !lp.AddMixed(Affine64{Inf: true}).Affine().Affine().Equal(p) {
		t.Fatal("p + ∞ != p")
	}

	// q = p (mixed doubling) and q = -p (cancellation).
	sameLD(t, "p+p", lp.AddMixed(p.To64()), FromAffine(p).AddMixed(p))
	if !lp.AddMixed(p.To64().Neg()).IsInfinity() {
		t.Fatal("p + (-p) != ∞")
	}

	// The order-2 point (0, 1) doubles to ∞.
	two := Affine{X: gf233.Zero, Y: gf233.One}
	if !FromAffine64(two.To64()).Double().IsInfinity() {
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
				q = q.FrobeniusN(k)
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
