package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ec"
	"repro/internal/koblitz"
)

// The variable-time τ-and-add loops defer τ across zero digits and
// apply the accumulated power just before each addition. The eager
// loops below apply one τ per digit position, as every loop did before
// the lazy form; each coordinate then sees the same squarings in the
// same order, so the tests demand identical LD64 coordinates, not just
// the same affine point. `make test64` repeats them on the portable
// backend, where τ^k is a Go loop instead of the assembly kernel.

// eagerDigits64 is scalarMultDigits64 with one τ per position.
func eagerDigits64[T koblitz.Digit](digits []T, table []ec.Affine64) ec.LD64 {
	q := ec.LD64Infinity
	for i := len(digits) - 1; i >= 0; i-- {
		q = q.FrobeniusN(1)
		switch d := digits[i]; {
		case d > 0:
			q = q.AddMixed(table[d>>1])
		case d < 0:
			q = q.SubMixed(table[(-d)>>1])
		}
	}
	return q
}

// eagerJoint is jointLD64 with one τ per position.
func eagerJoint(d1 []int16, t1 []ec.Affine64, d2 []int16, t2 []ec.Affine64) ec.LD64 {
	q := ec.LD64Infinity
	for i := max(len(d1), len(d2)) - 1; i >= 0; i-- {
		q = q.FrobeniusN(1)
		if i < len(d1) {
			switch d := d1[i]; {
			case d > 0:
				q = q.AddMixed(t1[d>>1])
			case d < 0:
				q = q.SubMixed(t1[(-d)>>1])
			}
		}
		if i < len(d2) {
			switch d := d2[i]; {
			case d > 0:
				q = q.AddMixed(t2[d>>1])
			case d < 0:
				q = q.SubMixed(t2[(-d)>>1])
			}
		}
	}
	return q
}

// eagerEval is MultiScalar.Eval with one τ per position on the
// accumulator and on every non-empty bucket.
func (ms *MultiScalar) eagerEval() ec.LD64 {
	terms, pts := ms.terms[:ms.nt], ms.pts[:ms.np]
	for u := range ms.buckets {
		ms.buckets[u] = ec.LD64Infinity
	}
	acc := ec.LD64Infinity
	for i := max(ms.maxT, ms.maxP) - 1; i >= 0; i-- {
		acc = acc.FrobeniusN(1)
		if i < ms.maxP {
			for u := range ms.buckets {
				if !ms.buckets[u].IsInfinity() {
					ms.buckets[u] = ms.buckets[u].FrobeniusN(1)
				}
			}
			for j := range pts {
				p := &pts[j]
				if i >= len(p.digits) {
					continue
				}
				switch d := p.digits[i]; {
				case d > 0:
					ms.buckets[d>>1] = ms.buckets[d>>1].AddMixed(p.pt)
				case d < 0:
					ms.buckets[(-d)>>1] = ms.buckets[(-d)>>1].SubMixed(p.pt)
				}
			}
		}
		for j := range terms {
			t := &terms[j]
			if i >= len(t.digits) {
				continue
			}
			switch d := t.digits[i]; {
			case d > 0:
				acc = acc.AddMixed(t.table[d>>1])
			case d < 0:
				acc = acc.SubMixed(t.table[(-d)>>1])
			}
		}
	}
	if ms.np > 0 {
		acc = ms.foldBuckets(acc)
	}
	return acc
}

// randDigits returns n width-w digits, each nonzero with probability
// 1/every and then odd with magnitude below 2^(w−1).
func randDigits[T koblitz.Digit](rnd *rand.Rand, n, w, every int) []T {
	d := make([]T, n)
	for i := range d {
		if rnd.Intn(every) != 0 {
			continue
		}
		v := T(2*rnd.Intn(1<<(w-2)) + 1)
		if rnd.Intn(2) == 0 {
			v = -v
		}
		d[i] = v
	}
	return d
}

// digitShapes returns the digit strings the lazy loops are checked on:
// nil, empty and all-zero strings, random strings at TNAF density and
// fully dense, strings whose low or high end is a long run of zeros,
// and lone digits at either end.
func digitShapes[T koblitz.Digit](rnd *rand.Rand, w int) map[string][]T {
	lowZeros := randDigits[T](rnd, 180, w, w+1)
	clear(lowZeros[:70])
	highZeros := randDigits[T](rnd, 180, w, w+1)
	clear(highZeros[110:])
	loneLow := make([]T, 120)
	loneLow[0] = 1
	loneHigh := make([]T, 120)
	loneHigh[119] = -1
	return map[string][]T{
		"nil":       nil,
		"empty":     {},
		"zeros":     make([]T, 50),
		"sparse":    randDigits[T](rnd, 240, w, w+1),
		"dense":     randDigits[T](rnd, 60, w, 1),
		"lowZeros":  lowZeros,
		"highZeros": highZeros,
		"loneLow":   loneLow,
		"loneHigh":  loneHigh,
	}
}

func TestLazyDigitsMatchEager(t *testing.T) {
	rnd := rand.New(rand.NewSource(26))
	p := ScalarBaseMult(big.NewInt(0x1234567))
	t4 := NewFixedBase(p, 4).table64
	for name, d := range digitShapes[int8](rnd, 4) {
		if got, want := scalarMultDigits64(d, t4), eagerDigits64(d, t4); got != want {
			t.Fatalf("w=4 %s: lazy %v, eager %v", name, got, want)
		}
	}
	for _, w := range []int{10, 12} {
		tw := NewFixedBase(p, w).table64
		for name, d := range digitShapes[int16](rnd, w) {
			if got, want := scalarMultDigits64(d, tw), eagerDigits64(d, tw); got != want {
				t.Fatalf("w=%d %s: lazy %v, eager %v", w, name, got, want)
			}
		}
	}
}

func TestLazyJointMatchesEager(t *testing.T) {
	rnd := rand.New(rand.NewSource(27))
	t1 := genJoint().table64
	t2 := NewFixedBase(ScalarBaseMult(big.NewInt(0xabcdef)), WPrecomp).table64
	s1 := digitShapes[int16](rnd, WJoint)
	s2 := digitShapes[int16](rnd, WPrecomp)
	for n1, d1 := range s1 {
		for n2, d2 := range s2 {
			if got, want := jointLD64(d1, t1, d2, t2), eagerJoint(d1, t1, d2, t2); got != want {
				t.Fatalf("d1 %s, d2 %s: lazy %v, eager %v", n1, n2, got, want)
			}
		}
	}
}

func TestLazyMultiScalarMatchesEager(t *testing.T) {
	rnd := rand.New(rand.NewSource(28))
	pt := func() ec.Affine64 { return ScalarBaseMult(new(big.Int).Rand(rnd, ec.Order)).To64() }
	q := ScalarBaseMult(big.NewInt(0x5eed))
	fb := NewFixedBase(q, WPrecomp)
	big64 := func() *big.Int { return new(big.Int).Rand(rnd, ec.Order) }
	small := func() *big.Int { return big.NewInt(int64(rnd.Intn(1 << 12))) }
	r, s := pt(), pt()
	cases := []struct {
		name  string
		build func(ms *MultiScalar)
	}{
		{"tables only", func(ms *MultiScalar) {
			ms.AddGen(big64())
			ms.AddFixed(big64(), fb)
		}},
		{"points only", func(ms *MultiScalar) {
			ms.AddWeighted(rnd.Uint64(), pt())
			ms.AddWeighted(rnd.Uint64()>>20, pt())
		}},
		// Full-width table terms run ~233 digits past 64-bit weights.
		{"tables longer", func(ms *MultiScalar) {
			ms.AddGen(big64())
			ms.AddAffine(big64(), q.To64())
			for i := 0; i < 6; i++ {
				ms.AddWeighted(rnd.Uint64(), pt())
			}
		}},
		// Short table scalars end well below the point terms.
		{"points longer", func(ms *MultiScalar) {
			ms.AddGen(small())
			ms.AddFixed(small(), fb)
			for i := 0; i < 6; i++ {
				ms.AddWeighted(rnd.Uint64(), pt())
			}
		}},
		// Weight 1 touches only bucket 0; the others stay empty.
		{"empty buckets", func(ms *MultiScalar) {
			ms.AddGen(big64())
			ms.AddWeighted(1, r)
		}},
		// r and −r under the same weight cancel in every bucket they
		// touch, which return to infinity after each position; s keeps
		// some of those buckets busy in between.
		{"buckets back to infinity", func(ms *MultiScalar) {
			c := rnd.Uint64()
			ms.AddFixed(big64(), fb)
			ms.AddWeighted(c, r)
			ms.AddWeighted(c, r.Neg())
			ms.AddWeighted(rnd.Uint64()>>30, s)
		}},
	}
	var ms MultiScalar
	for round := 0; round < 3; round++ {
		for _, c := range cases {
			ms.Reset()
			c.build(&ms)
			switch {
			case c.name == "tables longer" && ms.maxT <= ms.maxP,
				c.name == "points longer" && ms.maxP <= ms.maxT:
				t.Fatalf("%s: maxT %d, maxP %d", c.name, ms.maxT, ms.maxP)
			}
			want := ms.eagerEval()
			if got := ms.Eval(); got != want {
				t.Fatalf("%s (round %d): lazy %v, eager %v", c.name, round, got, want)
			}
		}
	}
}
