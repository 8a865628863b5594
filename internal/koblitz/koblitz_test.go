package koblitz

import (
	"math/big"
	"math/rand"
	"testing"
)

func randZTau(rnd *rand.Rand, bits int) ZTau {
	a := new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	b := new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	if rnd.Intn(2) == 0 {
		a.Neg(a)
	}
	if rnd.Intn(2) == 0 {
		b.Neg(b)
	}
	return ZTau{a, b}
}

func TestRingAxioms(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		x, y, z := randZTau(rnd, 64), randZTau(rnd, 64), randZTau(rnd, 64)
		if !x.Mul(y).Equal(y.Mul(x)) {
			t.Fatal("multiplication not commutative")
		}
		if !x.Mul(y.Mul(z)).Equal(x.Mul(y).Mul(z)) {
			t.Fatal("multiplication not associative")
		}
		if !x.Mul(y.Add(z)).Equal(x.Mul(y).Add(x.Mul(z))) {
			t.Fatal("multiplication not distributive")
		}
		if !x.Add(x.Neg()).IsZero() {
			t.Fatal("x + (-x) != 0")
		}
		if !x.Sub(y).Equal(x.Add(y.Neg())) {
			t.Fatal("Sub inconsistent with Add/Neg")
		}
	}
}

func TestTauCharacteristicEquation(t *testing.T) {
	// τ² + 2 = µτ.
	tau := NewZTau(0, 1)
	lhs := tau.Mul(tau).Add(NewZTau(2, 0))
	rhs := NewZTau(0, Mu)
	if !lhs.Equal(rhs) {
		t.Fatalf("τ² + 2 = %v, want %v", lhs, rhs)
	}
	// MulTau agrees with Mul by τ.
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		x := randZTau(rnd, 80)
		if !x.MulTau().Equal(x.Mul(tau)) {
			t.Fatal("MulTau != Mul(τ)")
		}
	}
}

func TestNormMultiplicative(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		x, y := randZTau(rnd, 48), randZTau(rnd, 48)
		lhs := x.Mul(y).Norm()
		rhs := new(big.Int).Mul(x.Norm(), y.Norm())
		if lhs.Cmp(rhs) != 0 {
			t.Fatalf("N(xy) = %v, N(x)N(y) = %v", lhs, rhs)
		}
		if x.Norm().Sign() < 0 {
			t.Fatal("negative norm")
		}
	}
	// N(τ) = 2, N(τ−1) = 3−µ = 4 (the curve cofactor).
	if TauPow(1).Norm().Int64() != 2 {
		t.Fatal("N(τ) != 2")
	}
	tm1 := NewZTau(-1, 1)
	if tm1.Norm().Int64() != 4 {
		t.Fatalf("N(τ-1) = %v, want 4", tm1.Norm())
	}
}

func TestConjAndNorm(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		x := randZTau(rnd, 48)
		// z·conj(z) = N(z) as a rational integer.
		prod := x.Mul(x.Conj())
		if prod.B.Sign() != 0 {
			t.Fatalf("z·conj(z) has τ part: %v", prod)
		}
		if prod.A.Cmp(x.Norm()) != 0 {
			t.Fatal("z·conj(z) != N(z)")
		}
		if !x.Conj().Conj().Equal(x) {
			t.Fatal("conjugation not an involution")
		}
	}
}

func TestDivTau(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	tau := NewZTau(0, 1)
	for i := 0; i < 50; i++ {
		x := randZTau(rnd, 64)
		q, ok := x.MulTau().DivTau()
		if !ok || !q.Equal(x) {
			t.Fatal("DivTau(x·τ) != x")
		}
		_ = tau
	}
	// Odd rational part: not divisible.
	if _, ok := NewZTau(1, 5).DivTau(); ok {
		t.Fatal("DivTau accepted an odd element")
	}
}

func TestTauPowRecurrence(t *testing.T) {
	// τ^(i+1) = µτ^i − 2τ^(i−1).
	for i := 1; i < 40; i++ {
		lhs := TauPow(i + 1)
		mu := NewZTau(int64(Mu), 0)
		rhs := mu.Mul(TauPow(i)).Sub(NewZTau(2, 0).Mul(TauPow(i - 1)))
		if !lhs.Equal(rhs) {
			t.Fatalf("recurrence fails at i=%d", i)
		}
	}
	// N(τ^i) = 2^i.
	if got := TauPow(10).Norm().Int64(); got != 1024 {
		t.Fatalf("N(τ^10) = %d, want 1024", got)
	}
}

func TestDelta(t *testing.T) {
	// (τ − 1)·δ = τ^m − 1.
	d := Delta()
	tm1 := NewZTau(-1, 1)
	lhs := tm1.Mul(d)
	rhs := TauPow(M).Sub(NewZTau(1, 0))
	if !lhs.Equal(rhs) {
		t.Fatal("(τ−1)·δ != τ^m − 1")
	}
	// N(δ) = #E(F_2^m)/#E(F_2) = n·h/4 = n (h = 4 = #E(F_2)).
	// The paper's subgroup order n must therefore equal N(δ).
	n, _ := new(big.Int).SetString(
		"8000000000000000000000000000069d5bb915bcd46efb1ad5f173abdf", 16)
	if d.Norm().Cmp(n) != 0 {
		t.Fatalf("N(δ) = %v, want the sect233k1 group order", d.Norm())
	}
}

func TestRoundDiv(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		x, y := randZTau(rnd, 120), randZTau(rnd, 60)
		if y.IsZero() {
			continue
		}
		q, r := RoundDiv(x, y)
		// Exactness: x = q·y + r.
		if !q.Mul(y).Add(r).Equal(x) {
			t.Fatal("RoundDiv identity violated")
		}
		// Rounding quality: N(r) ≤ (4/7)·N(y) (Solinas).
		lhs := new(big.Int).Mul(big.NewInt(7), r.Norm())
		rhs := new(big.Int).Mul(big.NewInt(4), y.Norm())
		if lhs.Cmp(rhs) > 0 {
			t.Fatalf("remainder too large: N(r)=%v, N(y)=%v", r.Norm(), y.Norm())
		}
	}
}

func TestTW(t *testing.T) {
	for w := 1; w <= 20; w++ {
		tw := TW(w)
		if tw%2 != 0 {
			t.Fatalf("t_%d = %d is odd", w, tw)
		}
		mod := int64(1) << w
		v := (tw*tw + 2 - int64(Mu)*tw) % mod
		if v != 0 {
			t.Fatalf("t_%d = %d does not satisfy t²+2 ≡ µt (mod 2^%d)", w, tw, w)
		}
		if tw < 0 || tw >= mod {
			t.Fatalf("t_%d = %d out of range", w, tw)
		}
	}
}

// TestTWCache pins the per-width t_w the recoding loops read to its
// Hensel-lifting derivation.
func TestTWCache(t *testing.T) {
	for w := MinW; w <= MaxWide; w++ {
		if _, _, tw := alphaInt64(w); tw != TW(w) {
			t.Fatalf("cached t_%d = %d, TW = %d", w, tw, TW(w))
		}
	}
}

func TestAlphaRepresentatives(t *testing.T) {
	for w := MinW; w <= MaxW; w++ {
		alphas := Alpha(w)
		if len(alphas) != 1<<(w-2) {
			t.Fatalf("w=%d: %d representatives, want %d", w, len(alphas), 1<<(w-2))
		}
		tw := TauPow(w)
		for i, a := range alphas {
			u := int64(2*i + 1)
			// α_u ≡ u (mod τ^w): the difference must be exactly
			// divisible by τ w times.
			diff := NewZTau(u, 0).Sub(a)
			for k := 0; k < w; k++ {
				var ok bool
				diff, ok = diff.DivTau()
				if !ok {
					t.Fatalf("w=%d u=%d: α_u − u not divisible by τ^%d", w, u, k+1)
				}
			}
			// Norm-minimality implies N(α_u) ≤ (4/7)·N(τ^w).
			lhs := new(big.Int).Mul(big.NewInt(7), a.Norm())
			rhs := new(big.Int).Mul(big.NewInt(4), tw.Norm())
			if lhs.Cmp(rhs) > 0 {
				t.Fatalf("w=%d u=%d: N(α_u)=%v too large", w, u, a.Norm())
			}
			// α_u must be odd (not divisible by τ) so subtractions make
			// the remainder even.
			if a.A.Bit(0) != 1 {
				t.Fatalf("w=%d u=%d: α_u = %v has even rational part", w, u, a)
			}
		}
		// α_1 = 1 always.
		if !alphas[0].Equal(NewZTau(1, 0)) {
			t.Fatalf("w=%d: α_1 = %v, want 1", w, alphas[0])
		}
	}
}

func TestTNAFReconstruct(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		rho := randZTau(rnd, 100)
		digits := TNAF(rho)
		if !Reconstruct(digits, 2).Equal(rho) {
			t.Fatalf("TNAF reconstruction failed for %v", rho)
		}
		// Digits in {0, ±1} and non-adjacent.
		for j, d := range digits {
			if d < -1 || d > 1 {
				t.Fatalf("TNAF digit %d out of range", d)
			}
			if d != 0 && j+1 < len(digits) && digits[j+1] != 0 {
				t.Fatalf("adjacent nonzero TNAF digits at %d", j)
			}
		}
	}
	// Edge cases.
	if len(TNAF(NewZTau(0, 0))) != 0 {
		t.Fatal("TNAF(0) should be empty")
	}
	if d := TNAF(NewZTau(1, 0)); len(d) != 1 || d[0] != 1 {
		t.Fatalf("TNAF(1) = %v", d)
	}
}

func TestWTNAFReconstruct(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	for w := MinW; w <= MaxW; w++ {
		for i := 0; i < 25; i++ {
			rho := randZTau(rnd, 100)
			digits := WTNAF(rho, w)
			if !Reconstruct(digits, w).Equal(rho) {
				t.Fatalf("w=%d: reconstruction failed for %v", w, rho)
			}
			for j, d := range digits {
				if d == 0 {
					continue
				}
				if d%2 == 0 {
					t.Fatalf("w=%d: even digit %d", w, d)
				}
				if int(d) >= 1<<(w-1) || int(d) <= -(1<<(w-1)) {
					t.Fatalf("w=%d: digit %d out of range", w, d)
				}
				// A nonzero digit is followed by >= w−1 zeros.
				for k := j + 1; k < min(j+w, len(digits)); k++ {
					if digits[k] != 0 {
						t.Fatalf("w=%d: digits %d and %d both nonzero", w, j, k)
					}
				}
			}
		}
	}
}

func TestWTNAFDensity(t *testing.T) {
	// Expected density of nonzero digits is 1/(w+1).
	rnd := rand.New(rand.NewSource(9))
	for _, w := range []int{4, 6} {
		var total, nonzero int
		for i := 0; i < 40; i++ {
			k := new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), 232))
			digits := WTNAF(PartMod(k), w)
			total += len(digits)
			for _, d := range digits {
				if d != 0 {
					nonzero++
				}
			}
		}
		got := float64(nonzero) / float64(total)
		want := 1 / float64(w+1)
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("w=%d: density %.4f, expected ≈ %.4f", w, got, want)
		}
	}
}

func TestPartModCongruence(t *testing.T) {
	rnd := rand.New(rand.NewSource(10))
	delta := Delta()
	for i := 0; i < 50; i++ {
		k := new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), 233))
		rho := PartMod(k)
		// k − ρ must be exactly divisible by δ.
		diff := FromInt(k).Sub(rho)
		q, r := RoundDiv(diff, delta)
		if !r.IsZero() {
			t.Fatalf("k − ρ not divisible by δ (remainder %v)", r)
		}
		if !q.Mul(delta).Add(r).Equal(diff) {
			t.Fatal("division identity failed")
		}
	}
}

func TestPartModShortensRecoding(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		k := new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), 232))
		withRed := len(WTNAF(PartMod(k), 4))
		withoutRed := len(WTNAF(FromInt(k), 4))
		if withRed > M+12 {
			t.Errorf("partially reduced recoding too long: %d", withRed)
		}
		if withoutRed < withRed {
			t.Errorf("unreduced recoding (%d) shorter than reduced (%d)",
				withoutRed, withRed)
		}
	}
}

func TestDensityHelper(t *testing.T) {
	if Density(nil) != 0 {
		t.Fatal("Density(nil) != 0")
	}
	if got := Density([]int8{0, 1, 0, -3}); got != 0.5 {
		t.Fatalf("Density = %v, want 0.5", got)
	}
}

func BenchmarkPartMod(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	k := new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), 232))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PartMod(k)
	}
}

func BenchmarkWTNAF4(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	k := new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), 232))
	rho := PartMod(k)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WTNAF(rho, 4)
	}
}

// BenchmarkRecode times the fast entry points over 64 random scalars
// below n (and 63-bit weights for intinto, as the linear-combination
// verifier draws them): w=4 is the per-call kP width, w=10 the per-key
// table width and w=12 the generator's joint-verification width.
func BenchmarkRecode(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	ks := make([]*big.Int, 64)
	ws := make([]uint64, len(ks))
	for i := range ks {
		ks[i] = new(big.Int).Rand(rnd, orderK233)
		ws[i] = rnd.Uint64() >> 1
	}
	var s Scratch
	var buf []int16
	for _, c := range []struct {
		name string
		fn   func(i int)
	}{
		{"w=4", func(i int) { s.Recode(ks[i%len(ks)], 4) }},
		{"w=10", func(i int) { s.RecodeWide(ks[i%len(ks)], 10) }},
		{"w=12", func(i int) { s.RecodeWide(ks[i%len(ks)], 12) }},
		{"into", func(i int) { buf = s.RecodeInto(ks[i%len(ks)], 4, buf) }},
		{"intinto", func(i int) { buf = s.RecodeIntInto(ws[i%len(ws)], 5, buf) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.fn(i)
			}
		})
	}
}
