package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf233"
)

func TestCombMatchesGeneric(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	g := ec.Gen()
	for _, w := range []int{2, 3, 5, WComb} {
		c := NewComb(g, w)
		if c.W() != w || c.TableSize() != 1<<w-1 || !c.Point().Equal(g) {
			t.Fatalf("w=%d: comb metadata wrong", w)
		}
		for i := 0; i < 8; i++ {
			k := randScalar(rnd)
			got := c.ScalarMult(k)
			want := ec.ScalarMultGeneric(k, g)
			if !got.Equal(want) {
				t.Fatalf("w=%d: comb %s·G = %v, want %v", w, k, got, want)
			}
		}
	}
}

func TestCombEdgeScalars(t *testing.T) {
	g := ec.Gen()
	c := NewComb(g, WComb)
	cases := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(ec.Order, big.NewInt(1)),
		new(big.Int).Set(ec.Order),
		new(big.Int).Add(ec.Order, big.NewInt(5)),
		big.NewInt(-3),
	}
	for _, k := range cases {
		got := c.ScalarMult(k)
		want := ec.ScalarMultGeneric(new(big.Int).Mod(k, ec.Order), g)
		if !got.Equal(want) {
			t.Fatalf("comb %s·G = %v, want %v", k, got, want)
		}
	}
	inf := NewComb(ec.Infinity, 4)
	if !inf.ScalarMult(big.NewInt(7)).Inf {
		t.Fatal("comb over the identity did not return the identity")
	}
}

func TestCombTableOnCurve(t *testing.T) {
	c := NewComb(ec.Gen(), 5)
	for i, p := range c.table {
		if !p.OnCurve() {
			t.Fatalf("table entry %d is off curve", i)
		}
		if p.Inf {
			t.Fatalf("table entry %d is the identity", i)
		}
	}
}

func TestScalarMultAcrossBackends(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	g := ec.Gen()
	defer gf233.SetBackend(gf233.CurrentBackend())
	for i := 0; i < 5; i++ {
		k := randScalar(rnd)
		want := ec.ScalarMultGeneric(k, g)
		for _, bk := range []gf233.Backend{gf233.Backend64, gf233.BackendCLMUL} {
			gf233.SetBackend(bk)
			kp, kg := ScalarMult(k, g), ScalarBaseMult(k)
			if !want.Equal(kp) {
				t.Fatalf("kP differs from ScalarMultGeneric (%v) for k=%s", bk, k)
			}
			if !want.Equal(kg) {
				t.Fatalf("kG differs from ScalarMultGeneric (%v) for k=%s", bk, k)
			}
		}
	}
}

func TestScalarBaseMultUsesCombConsistently(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	for i := 0; i < 10; i++ {
		k := randScalar(rnd)
		comb := ScalarBaseMult(k)
		tnaf := ScalarBaseMultTNAF(k)
		if !comb.Equal(tnaf) {
			t.Fatalf("comb and wTNAF disagree on %s·G: %v vs %v", k, comb, tnaf)
		}
	}
}
