package koblitz

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestRecodeIntoMatchesRecodeWide holds the caller-buffer recoding
// digit-identical to the Scratch-buffer one.
func TestRecodeIntoMatchesRecodeWide(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	var s1, s2 Scratch
	var buf []int16
	bound := new(big.Int).Lsh(big.NewInt(1), 233)
	for w := MinW; w <= MaxWide; w++ {
		for i := 0; i < 10; i++ {
			k := new(big.Int).Rand(rnd, bound)
			want := s1.RecodeWide(k, w)
			buf = s2.RecodeInto(k, w, buf)
			if len(buf) != len(want) {
				t.Fatalf("w=%d: length mismatch %d != %d", w, len(buf), len(want))
			}
			for j := range buf {
				if buf[j] != want[j] {
					t.Fatalf("w=%d: digit %d mismatch %d != %d", w, j, buf[j], want[j])
				}
			}
		}
	}
}

// TestRecodeIntIntoExact pins the defining property of the exact
// integer recoding: the digit string reconstructs to exactly k + 0·τ
// in Z[τ] — no partial reduction — so the recoding is valid for curve
// points outside the prime-order subgroup.
func TestRecodeIntIntoExact(t *testing.T) {
	rnd := rand.New(rand.NewSource(19))
	var s Scratch
	var buf []int16
	cases := []uint64{0, 1, 2, 3, 5, 1<<32 - 1, 1<<63 - 1, 1<<64 - 1}
	for i := 0; i < 50; i++ {
		cases = append(cases, rnd.Uint64()>>1)
	}
	for w := MinW; w <= MaxWide; w++ {
		for _, k := range cases {
			buf = s.RecodeIntInto(k, w, buf)
			got := Reconstruct(buf, w)
			want := ZTau{new(big.Int).SetUint64(k), big.NewInt(0)}
			if !got.Equal(want) {
				t.Fatalf("w=%d k=%d: reconstructed %v, want (%d, 0)", w, k, got, k)
			}
		}
	}
}

// TestZeroAllocRecode pins every fast entry point at zero allocations
// per call on in-domain scalars once its digit buffer has grown: the
// reduction and the digit loop keep their state on the stack.
func TestZeroAllocRecode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rnd := rand.New(rand.NewSource(23))
	ks := make([]*big.Int, 16)
	for i := range ks {
		ks[i] = new(big.Int).Rand(rnd, orderK233)
	}
	ks[0] = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), fastBits), big.NewInt(1))
	var s Scratch
	var buf []int16
	for _, c := range []struct {
		name string
		fn   func(k *big.Int)
	}{
		{"Recode", func(k *big.Int) { s.Recode(k, 4) }},
		{"RecodeWide", func(k *big.Int) { s.RecodeWide(k, 12) }},
		{"RecodeWideSecond", func(k *big.Int) { s.RecodeWideSecond(k, 10) }},
		{"RecodeInto", func(k *big.Int) { buf = s.RecodeInto(k, 5, buf) }},
		{"RecodeIntInto", func(k *big.Int) { buf = s.RecodeIntInto(k.Uint64(), 5, buf) }},
	} {
		for _, k := range ks {
			c.fn(k) // grow the buffers to steady state
		}
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			c.fn(ks[i%len(ks)])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, allocs)
		}
	}
}
