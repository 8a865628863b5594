package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf233"
)

func ctEvalScalars() []*big.Int {
	n := ec.Order
	scalars := []*big.Int{
		big.NewInt(1), big.NewInt(2), big.NewInt(3),
		new(big.Int).Sub(n, big.NewInt(1)),
		new(big.Int).Sub(n, big.NewInt(2)),
		new(big.Int).Lsh(big.NewInt(1), 231),
		// The comb doubling-collision shape: bits {28, 56} make the
		// accumulator equal the next table entry mid-evaluation, the
		// exceptional case ctAddMixed must resolve by masked select.
		new(big.Int).SetBit(new(big.Int).SetBit(big.NewInt(0), 28, 1), 56, 1),
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		scalars = append(scalars, new(big.Int).Rand(rng, n))
	}
	return scalars
}

// TestScalarBaseMultCTMatchesFast pins the constant-time comb to the
// fast path bit for bit across edge and random scalars.
func TestScalarBaseMultCTMatchesFast(t *testing.T) {
	s := NewScratch()
	for _, k := range ctEvalScalars() {
		want := s.ScalarBaseMult(k)
		got := s.ScalarBaseMultCT(k)
		if !pointsEqualCT(got, want) {
			t.Fatalf("k=%v: CT comb %v != fast %v", k, got, want)
		}
	}
}

// ladderCTScalars adds to ctEvalScalars the scalars that exercise the
// ladder's fixed length: 7, and 2^232 − 1, which is above n but below
// 4n and so runs unreduced through the top of the loop.
func ladderCTScalars() []*big.Int {
	top := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 232), big.NewInt(1))
	return append(ctEvalScalars(), big.NewInt(7), top)
}

// TestLadderCTMatchesFast pins the constant-time ladder to the fast
// path, at the generator and at a non-generator subgroup point: the
// projective x-line, the normalised x of the one-shot entry point, and
// ScalarMultLadder's recovered y.
func TestLadderCTMatchesFast(t *testing.T) {
	s := NewScratch()
	points := []ec.Affine{ec.Gen(), s.ScalarBaseMult(big.NewInt(0x1234567))}
	for _, p := range points {
		for _, k := range ladderCTScalars() {
			want := s.ScalarMult(k, p)
			lx, lz := s.LadderX(k, p)
			if lz.IsZero() != want.Inf {
				t.Fatalf("k=%v: ladder Z = 0 is %v, fast ∞ is %v", k, lz.IsZero(), want.Inf)
			}
			x, ok := LadderX(k, p)
			if ok == want.Inf || (ok && x != want.X) {
				t.Fatalf("k=%v: LadderX = (%v, %v), fast %v", k, x, ok, want)
			}
			if ok && gf233.Mul64(gf233.ToElem64(x), lz) != lx {
				t.Fatalf("k=%v: X/Z != LadderX", k)
			}
			if got := ScalarMultLadder(k, p); !pointsEqualCT(got, want) {
				t.Fatalf("k=%v: ScalarMultLadder %v != fast %v", k, got, want)
			}
		}
	}
}

// TestLadderCTZeroAndInfinity covers the degenerate inputs: the zero
// scalar and the group order give Z = 0, and the point at infinity
// stays there.
func TestLadderCTZeroAndInfinity(t *testing.T) {
	s := NewScratch()
	for _, k := range []*big.Int{big.NewInt(0), ec.Order} {
		if _, z := s.LadderX(k, ec.Gen()); !z.IsZero() {
			t.Fatalf("%v·G: ladder Z = %v, want 0", k, z)
		}
		if _, ok := LadderX(k, ec.Gen()); ok {
			t.Fatalf("%v·G: LadderX reported a finite point", k)
		}
	}
	if got := s.ScalarBaseMultCT(big.NewInt(0)); !got.Inf {
		t.Fatalf("comb 0·G = %v, want infinity", got)
	}
	if _, z := s.LadderX(big.NewInt(5), ec.Infinity); !z.IsZero() {
		t.Fatalf("5·∞: ladder Z = %v, want 0", z)
	}
	if got := ScalarMultLadder(big.NewInt(5), ec.Infinity); !got.Inf {
		t.Fatalf("5·∞ = %v, want infinity", got)
	}
}

// TestLadderCTWholeCurve holds ScalarMultLadder to the generic
// double-and-add off the prime-order subgroup, where only reduction
// modulo 4n (not n) is sound: points P + T for T of order 2 and 4,
// with scalars around multiples of n, beyond 4n and negative.
func TestLadderCTWholeCurve(t *testing.T) {
	g := ec.Gen()
	n := ec.Order
	torsion := []ec.Affine{
		{X: gf233.Zero, Y: gf233.One}, // order 2
		{X: gf233.One, Y: gf233.Zero}, // order 4
	}
	scalars := []*big.Int{
		big.NewInt(2), big.NewInt(3), big.NewInt(4), n,
		new(big.Int).Add(n, big.NewInt(1)),
		new(big.Int).Add(new(big.Int).Lsh(n, 1), big.NewInt(1)),
		new(big.Int).Sub(curveOrder, big.NewInt(1)),
		new(big.Int).Add(curveOrder, big.NewInt(5)),
		big.NewInt(-5),
	}
	for _, tp := range torsion {
		p := g.Add(tp)
		for _, k := range scalars {
			want := ec.ScalarMultGeneric(new(big.Int).Mod(k, curveOrder), p)
			if got := ScalarMultLadder(k, p); !pointsEqualCT(got, want) {
				t.Fatalf("P+T, k=%v: ladder %v != generic %v", k, got, want)
			}
		}
	}
}

// TestCTPackageEntryPoints exercises the pooled wrappers.
func TestCTPackageEntryPoints(t *testing.T) {
	k := big.NewInt(0xdeadbeef)
	if got, want := ScalarBaseMultCT(k), ScalarBaseMult(k); !pointsEqualCT(got, want) {
		t.Fatalf("package ScalarBaseMultCT mismatch")
	}
	if x, ok := LadderX(k, ec.Gen()); !ok || x != ScalarMult(k, ec.Gen()).X {
		t.Fatalf("package LadderX mismatch")
	}
}

func pointsEqualCT(a, b ec.Affine) bool {
	if a.Inf || b.Inf {
		return a.Inf == b.Inf
	}
	return a.X == b.X && a.Y == b.Y
}
