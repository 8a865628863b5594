package ec

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gf233"
)

// TestSolveQuadratic64VsRef holds the table-driven solver bit-identical
// to the reference chain on random inputs, both solvable (Tr = 0) and
// not (Tr = 1), plus the fixed corners, and rejects unreduced inputs.
func TestSolveQuadratic64VsRef(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	check := func(c gf233.Elem) {
		t.Helper()
		want, wantOK := SolveQuadratic(c)
		got, gotOK := SolveQuadratic64(gf233.ToElem64(c))
		if gotOK != wantOK || got.Elem() != want {
			t.Fatalf("SolveQuadratic64 mismatch for %v: got (%v, %v), want (%v, %v)",
				c, got.Elem(), gotOK, want, wantOK)
		}
	}
	check(gf233.Zero)
	check(gf233.One)
	// Bits above z^232 are not a field element: no solution, and no
	// read past the 233-row table.
	for bit := gf233.TopBits64; bit < 64; bit++ {
		c := gf233.ToElem64(Gen().X)
		c[3] |= 1 << bit
		if _, ok := SolveQuadratic64(c); ok {
			t.Fatalf("SolveQuadratic64 solved an input with bit %d set", 192+bit)
		}
	}
	for i := 0; i < 200; i++ {
		var b [gf233.ByteLen]byte
		rng.Read(b[:])
		b[0] &= 1
		c, ok := gf233.FromBytes(b)
		if !ok {
			i--
			continue
		}
		check(c)
	}
}

func BenchmarkSolveQuadratic64(b *testing.B) {
	// x + 1/x² for the generator abscissa: a representative solvable input.
	x := gf233.ToElem64(Gen().X)
	x2i := gf233.MustInv64(gf233.Sqr64(x))
	c := gf233.Add64(x, x2i)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := SolveQuadratic64(c); !ok {
			b.Fatal("unsolvable")
		}
	}
}

// TestDecompressMatchesReference holds Decompress, which runs on the
// 64-bit table solver, equal to decompression on the 32-bit reference
// arithmetic (gf233.Inv and the SolveQuadratic chain) for random
// abscissae, solvable or not, with both recovery bits.
func TestDecompressMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ref := func(x gf233.Elem, bit uint32) (Affine, bool) {
		x2i, _ := gf233.Inv(gf233.Sqr(x))
		lam, ok := SolveQuadratic(gf233.Add(x, gf233.Mul(B, x2i)))
		if !ok {
			return Infinity, false
		}
		if lam.Bit(0) != bit {
			lam = gf233.Add(lam, gf233.One)
		}
		return Affine{X: x, Y: gf233.Mul(lam, x)}, true
	}
	onCurve := 0
	for i := 0; i < 200; i++ {
		x := gf233.Rand(rng.Uint32)
		if x == gf233.Zero {
			continue
		}
		for bit := uint32(0); bit < 2; bit++ {
			want, wantOK := ref(x, bit)
			got, err := Decompress(x, bit)
			if (err == nil) != wantOK || (wantOK && !got.Equal(want)) {
				t.Fatalf("x=%v bit=%d: Decompress = (%v, %v), reference = (%v, %v)",
					x, bit, got, err, want, wantOK)
			}
			if wantOK {
				onCurve++
			}
		}
	}
	if onCurve == 0 {
		t.Fatal("no random abscissa decompressed")
	}
}

// TestWarmBuildsHalfTrace shows that Warm builds the shared half-trace
// table, so the first decode or subgroup check in a server does not
// build it inside a request, and that every entry is a half-trace:
// H(c)² + H(c) = c + Tr(c) for each basis monomial c = z^j. The tests
// of this package run sequentially, so the test can drop whatever
// table an earlier test built and start from an unbuilt one.
func TestWarmBuildsHalfTrace(t *testing.T) {
	htOnce, htTable = sync.Once{}, [gf233.M]gf233.Elem64{}
	Warm()
	built := true
	htOnce.Do(func() { built = false })
	if !built {
		t.Fatal("Warm returned without building the half-trace table")
	}
	for j, h := range htTable {
		c := gf233.Zero64
		c[j/64] = 1 << (j % 64)
		want := c
		if gf233.TraceFast(c.Elem()) == 1 {
			want = gf233.Add64(want, gf233.One64)
		}
		if gf233.Add64(gf233.Sqr64(h), h) != want {
			t.Fatalf("table entry %d is not the half-trace of z^%d", j, j)
		}
	}
}
