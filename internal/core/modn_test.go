package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ec"
)

// TestModNInv pins the safegcd inversion against big.Int.ModInverse
// over random residues and the boundary values, with 0 mapping to 0.
func TestModNInv(t *testing.T) {
	rnd := rand.New(rand.NewSource(90))
	var m ModN
	dst := new(big.Int)
	want := new(big.Int)
	check := func(a *big.Int) {
		t.Helper()
		m.Inv(dst, a)
		want.SetInt64(0)
		if a.Sign() != 0 {
			want.ModInverse(a, ec.Order)
		}
		if dst.Cmp(want) != 0 {
			t.Fatalf("Inv(%v) = %v, want %v", a, dst, want)
		}
	}
	for _, v := range []int64{0, 1, 2, 3, 4, 255, 1 << 32} {
		check(big.NewInt(v))
	}
	for i := uint(0); i < 62; i++ {
		check(new(big.Int).Lsh(big.NewInt(1), 3*i))
	}
	check(new(big.Int).Sub(ec.Order, big.NewInt(1)))
	check(new(big.Int).Sub(ec.Order, big.NewInt(2)))
	check(new(big.Int).Rsh(ec.Order, 1))
	for i := 0; i < 500; i++ {
		a := new(big.Int).Rand(rnd, ec.Order)
		if a.Sign() == 0 {
			continue
		}
		check(a)
	}
}

// TestSafegcdStepBound holds the fixed divstep count to Bernstein–Yang
// Thm 11.2 for the order's bit length d: f = n and g < n give
// f² + 4g² ≤ 5·2^(2d), and then ⌊(49d + 57)/17⌋ divsteps (for d ≥ 46)
// take g to 0.
func TestSafegcdStepBound(t *testing.T) {
	d := ec.Order.BitLen()
	if d < 46 {
		t.Fatalf("order of %d bits: Thm 11.2's bound for d < 46 is (49d + 80)/17", d)
	}
	if need, got := (49*d+57)/17, divstepBatches*62; got < need {
		t.Fatalf("%d batches of 62 divsteps = %d < %d needed for %d bits", divstepBatches, got, need, d)
	}
}

// FuzzModNInvVsBig holds Inv to big.Int.ModInverse on fuzzed 30-byte
// values reduced mod n, with 0 mapping to 0.
func FuzzModNInvVsBig(f *testing.F) {
	f.Add([]byte{1})
	f.Add(ec.Order.Bytes())
	f.Add(new(big.Int).Sub(ec.Order, big.NewInt(1)).Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 30 {
			b = b[:30]
		}
		a := new(big.Int).SetBytes(b)
		a.Mod(a, ec.Order)
		want := new(big.Int)
		if a.Sign() != 0 {
			want.ModInverse(a, ec.Order)
		}
		var m ModN
		got := new(big.Int)
		m.Inv(got, a)
		if got.Cmp(want) != 0 {
			t.Fatalf("Inv(%v) = %v, want %v", a, got, want)
		}
	})
}

// BenchmarkModNInv times Inv against big.Int.ModInverse on the same
// operands.
func BenchmarkModNInv(b *testing.B) {
	rnd := rand.New(rand.NewSource(93))
	ops := make([]*big.Int, 64)
	for i := range ops {
		ops[i] = new(big.Int).Rand(rnd, ec.Order)
		if ops[i].Sign() == 0 {
			ops[i].SetInt64(1)
		}
	}
	dst := new(big.Int)
	b.Run("safegcd", func(b *testing.B) {
		var m ModN
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Inv(dst, ops[i%len(ops)])
		}
	})
	b.Run("big", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst.ModInverse(ops[i%len(ops)], ec.Order)
		}
	})
}

// TestModNMul pins Mul against the straightforward Mul+Mod evaluation,
// including aliased destinations.
func TestModNMul(t *testing.T) {
	rnd := rand.New(rand.NewSource(91))
	var m ModN
	dst := new(big.Int)
	want := new(big.Int)
	for i := 0; i < 200; i++ {
		a := new(big.Int).Rand(rnd, ec.Order)
		b := new(big.Int).Rand(rnd, ec.Order)
		want.Mul(a, b)
		want.Mod(want, ec.Order)
		m.Mul(dst, a, b)
		if dst.Cmp(want) != 0 {
			t.Fatalf("Mul(%v, %v) = %v, want %v", a, b, dst, want)
		}
		// Aliased: dst == a.
		m.Mul(a, a, b)
		if a.Cmp(want) != 0 {
			t.Fatalf("aliased Mul diverged")
		}
	}
}

// TestReduceModOrder checks the conditional-subtraction reduction over
// the full 233-bit input range it promises to handle.
func TestReduceModOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(92))
	limit := new(big.Int).Lsh(big.NewInt(1), 233)
	want := new(big.Int)
	for i := 0; i < 500; i++ {
		v := new(big.Int).Rand(rnd, limit)
		want.Mod(v, ec.Order)
		ReduceModOrder(v)
		if v.Cmp(want) != 0 {
			t.Fatalf("ReduceModOrder diverged at iteration %d", i)
		}
	}
	for _, v := range []*big.Int{
		new(big.Int),
		new(big.Int).Sub(ec.Order, big.NewInt(1)),
		new(big.Int).Set(ec.Order),
		new(big.Int).Sub(limit, big.NewInt(1)),
	} {
		want.Mod(v, ec.Order)
		ReduceModOrder(v)
		if v.Cmp(want) != 0 {
			t.Fatalf("ReduceModOrder boundary diverged")
		}
	}
}
