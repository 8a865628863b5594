package koblitz

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestScratchRecodeMatchesReference holds the allocation-free Recode
// path digit-for-digit equal to the reference PartMod + WTNAF pipeline
// across widths and scalar shapes, reusing one Scratch throughout so
// stale-state bugs would surface.
func TestScratchRecodeMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	var s Scratch
	scalars := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(255),
		new(big.Int).Lsh(big.NewInt(1), 232),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 233), big.NewInt(1)),
	}
	for i := 0; i < 40; i++ {
		scalars = append(scalars, new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), 240)))
	}
	for _, k := range scalars {
		for w := MinW; w <= MaxW; w++ {
			want := WTNAF(PartMod(k), w)
			got := s.Recode(k, w)
			if len(got) != len(want) {
				t.Fatalf("w=%d k=%v: length %d != %d", w, k, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("w=%d k=%v: digit %d is %d, want %d", w, k, j, got[j], want[j])
				}
			}
		}
	}
}

// TestScratchWipe checks that Wipe leaves no trace of the recoded
// scalar: every digit buffer (each invertible back to the scalar),
// including capacity beyond its length, must read zero. The residues never outlive a call, so the
// buffers are all a Scratch retains.
func TestScratchWipe(t *testing.T) {
	var s Scratch
	k := new(big.Int).Lsh(big.NewInt(0xdeadbeef), 180)
	digits := s.Recode(k, 4)
	nonzero := false
	for _, d := range digits {
		if d != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("test scalar recoded to all zeros")
	}
	s.RecodeWide(k, 10)
	s.RecodeWideSecond(k, 12)
	s.Wipe()
	for i, d := range s.digits[:cap(s.digits)] {
		if d != 0 {
			t.Fatalf("digits[%d] survived Wipe", i)
		}
	}
	for name, buf := range map[string][]int16{"digitsW": s.digitsW, "digitsW2": s.digitsW2} {
		if cap(buf) == 0 {
			t.Fatalf("%s was never filled", name)
		}
		for i, d := range buf[:cap(buf)] {
			if d != 0 {
				t.Fatalf("%s[%d] survived Wipe", name, i)
			}
		}
	}
	// The scratch must still work after a wipe.
	want := WTNAF(PartMod(k), 4)
	got := s.Recode(k, 4)
	if len(got) != len(want) {
		t.Fatal("Recode after Wipe diverged")
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("Recode after Wipe diverged")
		}
	}
}

// TestScratchRecodeReconstructs checks the recoded digits still
// evaluate back to a residue congruent to k modulo δ.
func TestScratchRecodeReconstructs(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	var s Scratch
	for i := 0; i < 10; i++ {
		k := new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), 233))
		digits := s.Recode(k, 5)
		// Copy: Reconstruct may outlive the scratch buffer reuse below.
		cp := append([]int8(nil), digits...)
		got := Reconstruct(cp, 5)
		want := PartMod(k)
		diff := got.Sub(want)
		_, rem := RoundDiv(diff, Delta())
		if !diff.IsZero() && !rem.IsZero() {
			// got − want must be a multiple of δ; for the digit strings
			// produced here it is in fact always exactly equal.
			t.Fatalf("k=%v: reconstructed %v, want %v", k, got, want)
		}
	}
}

// TestPartModWordsMatchesPartMod holds the fixed-width reduction to the
// reference PartMod coordinate for coordinate, over random scalars of
// every size below 2^fastBits, and checks that the sample reaches each
// of Routine 60's four lattice corrections (the branches that make the
// representative PartMod's rather than the per-coordinate rounding's).
func TestPartModWordsMatchesPartMod(t *testing.T) {
	ctInit()
	rnd := rand.New(rand.NewSource(99))
	bound := new(big.Int).Lsh(big.NewInt(1), fastBits)
	seen := map[[2]int64]bool{}
	for i := 0; i < 2000; i++ {
		k := new(big.Int).Rand(rnd, bound)
		k.Rsh(k, uint(rnd.Intn(fastBits)))
		var kw [4]uint64
		loadWords(kw[:], k)
		numA, numB := ctNumerators(kw)
		_, ra := ctRoundDiv(numA)
		_, rb := ctRoundDiv(numB)
		h0, h1 := latticeCorrection(ra, rb)
		seen[[2]int64{h0, h1}] = true
		r0, r1 := partModWords(kw)
		want := PartMod(k)
		if i128ToBig(r0).Cmp(want.A) != 0 || i128ToBig(r1).Cmp(want.B) != 0 {
			t.Fatalf("k=%v: partModWords (%v, %v), PartMod %v", k, i128ToBig(r0), i128ToBig(r1), want)
		}
	}
	for _, h := range [][2]int64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		if !seen[h] {
			t.Errorf("no scalar reached the lattice correction (h0, h1) = %v", h)
		}
	}
}
