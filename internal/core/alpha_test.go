package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf233"
	"repro/internal/koblitz"
)

// Every host α table — both views of NewFixedBase, the per-call
// Scratch table, MultiScalar's per-term tables and each point's slice
// of a batched build — is pinned entry for entry to AlphaPoints, the
// 32-bit reference, which TestAlphaPointsOnCurve in turn pins to
// generic scalar multiplication.

// torsionPoints are the non-identity points of order 2 and 4.
var torsionPoints = []ec.Affine{
	{X: gf233.Zero, Y: gf233.One},
	{X: gf233.One, Y: gf233.Zero},
	{X: gf233.One, Y: gf233.One},
}

// alphaInputs returns G, random subgroup points, ∞, the torsion points
// and subgroup points shifted by each torsion point. The torsion
// inputs are the ones whose multiples hit ∞ or collide in x, i.e.
// alphaTables' fallback branch.
func alphaInputs(t *testing.T) []ec.Affine {
	t.Helper()
	rnd := rand.New(rand.NewSource(12))
	pts := []ec.Affine{ec.Gen(), ec.Infinity}
	for i := 0; i < 3; i++ {
		pts = append(pts, ScalarBaseMult(randScalar(rnd)))
	}
	pts = append(pts, torsionPoints...)
	for _, tp := range torsionPoints {
		pts = append(pts, ScalarBaseMult(randScalar(rnd)).Add(tp))
	}
	for i, p := range pts {
		if !p.OnCurve() {
			t.Fatalf("input %d is off the curve", i)
		}
	}
	return pts
}

func to32(tab []ec.Affine64) []ec.Affine {
	out := make([]ec.Affine, len(tab))
	for i, p := range tab {
		out[i] = p.Affine()
	}
	return out
}

// sameTable fails unless got equals the reference table entry for
// entry.
func sameTable(t *testing.T, what string, got, want []ec.Affine) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: entry %d (α_%d) differs from AlphaPoints", what, i, 2*i+1)
		}
	}
}

// TestAlphaPointsOnCurve pins the reference itself: every entry of
// AlphaPoints(P, w) is on the curve and equals a·P + b·τ(P) by generic
// scalar multiplication, at every width, for G and a torsion-shifted
// point.
func TestAlphaPointsOnCurve(t *testing.T) {
	g := ec.Gen()
	for _, p := range []ec.Affine{g, g.Add(torsionPoints[1])} {
		tp := p.Frobenius()
		for w := koblitz.MinW; w <= koblitz.MaxWide; w++ {
			pts := AlphaPoints(p, w)
			if len(pts) != 1<<(w-2) {
				t.Fatalf("w=%d: %d points", w, len(pts))
			}
			// P_1 = α_1·P = P.
			if !pts[0].Equal(p) {
				t.Fatalf("w=%d: P_1 != P", w)
			}
			for i, al := range koblitz.Alpha(w) {
				if !pts[i].OnCurve() {
					t.Fatalf("w=%d: P_%d off curve", w, 2*i+1)
				}
				want := ec.ScalarMultGeneric(al.A, p).Add(ec.ScalarMultGeneric(al.B, tp))
				if !pts[i].Equal(want) {
					t.Fatalf("w=%d: P_%d != a·P + b·τ(P)", w, 2*i+1)
				}
			}
		}
	}
}

// TestAlphaTablesMatchOracle holds every table alphaTables produces
// equal to AlphaPoints at every width on every input, including the torsion
// inputs that reach the fallback branch.
func TestAlphaTablesMatchOracle(t *testing.T) {
	pts := alphaInputs(t)
	p64 := make([]ec.Affine64, len(pts))
	for i, p := range pts {
		p64[i] = p.To64()
	}
	s := NewScratch()
	var batch []ec.Affine64
	for w := koblitz.MinW; w <= koblitz.MaxWide; w++ {
		tw := 1 << (w - 2)
		s.alphaTables(&batch, p64, w)
		for i, p := range pts {
			want := AlphaPoints(p, w)
			tag := fmt.Sprintf("w=%d input %d", w, i)
			fb := NewFixedBase(p, w)
			sameTable(t, tag+" NewFixedBase.table64", to32(fb.table64), want)
			if w <= koblitz.MaxW {
				sameTable(t, tag+" NewFixedBase.table", fb.table, want)
			} else if fb.table != nil {
				t.Fatalf("%s: wide table keeps a 32-bit view", tag)
			}
			sameTable(t, tag+" Scratch.alphaTable", to32(s.alphaTable(p64[i], w)), want)
			sameTable(t, tag+" batch slice", to32(batch[i*tw:(i+1)*tw]), want)
		}
	}
	// MultiScalar holds one per-call table per table-less term, all
	// built through its one Scratch.
	var ms MultiScalar
	var held []ec.Affine
	for _, p := range pts {
		if !p.Inf {
			ms.AddAffine(big.NewInt(1), p.To64())
			held = append(held, p)
		}
	}
	for j, p := range held {
		sameTable(t, fmt.Sprintf("MultiScalar term %d", j), to32(ms.terms[j].table), AlphaPoints(p, WRandom))
	}
}

// TestScratchTablesSurviveLaterBuilds pins the aliasing contract of
// alphaTables: a table the Scratch hands out (its own per-call table,
// or one built into a caller's buffer as MultiScalar keeps per key)
// stays intact through later builds and a batched ladder on the same
// Scratch. A construction that staged through a buffer a held table
// aliases fails here.
func TestScratchTablesSurviveLaterBuilds(t *testing.T) {
	pts := alphaInputs(t)
	ks := make([]*big.Int, len(pts))
	for i := range ks {
		ks[i] = big.NewInt(int64(1000 + i))
	}
	dst := make([]ec.LD64, len(pts))
	s := NewScratch()
	// Reach steady state first, so every later build reuses (rather
	// than reallocates) the buffers an aliasing bug would share.
	s.ScalarMultBatchLD64(dst, ks, pts)
	s.alphaTable(pts[0].To64(), WJoint)
	for _, w := range []int{WRandom, WFixed} {
		a := s.alphaTable(pts[2].To64(), w)
		var bufB []ec.Affine64
		b := s.alphaTables(&bufB, []ec.Affine64{pts[3].To64()}, w)
		s.ScalarMultBatchLD64(dst, ks, pts)
		sameTable(t, fmt.Sprintf("w=%d held Scratch table", w), to32(a), AlphaPoints(pts[2], w))
		sameTable(t, fmt.Sprintf("w=%d held caller table", w), to32(b), AlphaPoints(pts[3], w))
	}
	// The batch itself ran on the subgroup inputs (G, ∞, random points).
	for i := 0; i < 5; i++ {
		if want := ec.ScalarMultGeneric(ks[i], pts[i]); !dst[i].Affine().Affine().Equal(want) {
			t.Fatalf("batched ladder %d diverged", i)
		}
	}
}

// TestZeroAllocFixedBaseBuild pins a table build at the allocations
// the FixedBase retains (the struct and its table slices, ≤ 3): the
// construction's staging comes from the pooled Scratch.
func TestZeroAllocFixedBaseBuild(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := ScalarBaseMult(big.NewInt(0x1234567))
	for _, w := range []int{WRandom, WFixed, WPrecomp, WJoint} {
		NewFixedBase(p, w) // grow the pooled Scratch
		if avg := testing.AllocsPerRun(20, func() {
			sinkFB = NewFixedBase(p, w)
		}); avg > 3 {
			t.Fatalf("w=%d: NewFixedBase allocates %v/op, want ≤ 3", w, avg)
		}
	}
	s := NewScratch()
	p64 := p.To64()
	s.alphaTable(p64, WRandom)
	if avg := testing.AllocsPerRun(100, func() {
		s.alphaTable(p64, WRandom)
	}); avg != 0 {
		t.Fatalf("per-call table allocates %v/op, want 0", avg)
	}
}

var sinkFB *FixedBase

// BenchmarkAlphaTable times the α-table builds: NewFixedBase at the
// per-call, fixed-point, per-key and generator-joint widths, and the
// per-call width-WRandom table on a reused Scratch.
func BenchmarkAlphaTable(b *testing.B) {
	p := ScalarBaseMult(randScalar(rand.New(rand.NewSource(1))))
	for _, w := range []int{WRandom, WFixed, WPrecomp, WJoint} {
		b.Run(fmt.Sprintf("fixedbase/w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkFB = NewFixedBase(p, w)
			}
		})
	}
	b.Run(fmt.Sprintf("scratch/w=%d", WRandom), func(b *testing.B) {
		s := NewScratch()
		p64 := p.To64()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.alphaTable(p64, WRandom)
		}
	})
}
