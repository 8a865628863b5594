package koblitz

import (
	"math/big"
	"testing"
)

// FuzzRecodeVsReference holds every fast entry point to the reference
// pipeline. A fuzzed scalar (optionally negated, at most 512 bits) runs
// through Recode, RecodeWide, RecodeWideSecond (with a RecodeWide in
// between, which must not disturb it) and RecodeInto at a fuzzed width
// w = 2…12:
//
//   - for w ≤ 8 every digit string equals WTNAF(PartMod(k), w) digit
//     for digit;
//   - for w = 9…12, where the int8 reference stops, each reconstructs
//     to exactly PartMod(k) and has wTNAF shape.
//
// A fuzzed uint64 weight through RecodeIntInto must reconstruct to
// exactly (weight, 0). The seeds straddle the fixed-width domain
// (0 ≤ k < 2^fastBits) and the reference fallback outside it.
func FuzzRecodeVsReference(f *testing.F) {
	pow2 := func(e uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), e) }
	add := func(x *big.Int, d int64) *big.Int { return new(big.Int).Add(x, big.NewInt(d)) }
	scalars := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		add(orderK233, -1), orderK233, add(orderK233, 1),
		pow2(232), add(pow2(233), -1),
		add(pow2(fastBits), -1), pow2(fastBits), // last inside, first outside
		new(big.Int).Neg(add(orderK233, -1)),
		pow2(240),
	}
	weights := []uint64{0, 1, 1<<63 - 1, 1<<64 - 1}
	for i, k := range scalars {
		f.Add(new(big.Int).Abs(k).Bytes(), k.Sign() < 0, uint8(i), weights[i%len(weights)])
	}
	f.Fuzz(func(t *testing.T, kb []byte, neg bool, wsel uint8, weight uint64) {
		if len(kb) > 64 {
			kb = kb[:64]
		}
		k := new(big.Int).SetBytes(kb)
		if neg {
			k.Neg(k)
		}
		w := MinW + int(wsel)%(MaxWide-MinW+1)
		rho := PartMod(k)
		var s Scratch
		var buf []int16
		// RecodeWideSecond's digits must survive a RecodeWide of another
		// scalar: the joint verifier holds both strings at once.
		second := s.RecodeWideSecond(k, w)
		s.RecodeWide(new(big.Int).Add(k, big.NewInt(1)), w)
		got := map[string][]int16{
			"RecodeWideSecond": second,
			"RecodeWide":       s.RecodeWide(k, w),
			"RecodeInto":       s.RecodeInto(k, w, buf),
		}
		if w <= MaxW {
			want := WTNAF(rho, w)
			got8 := s.Recode(k, w)
			if !equal8(got8, want) {
				t.Fatalf("k=%v w=%d: Recode %v, want %v", k, w, got8, want)
			}
			for name, d := range got {
				if len(d) != len(want) {
					t.Fatalf("k=%v w=%d: %s has %d digits, want %d", k, w, name, len(d), len(want))
				}
				for i := range d {
					if d[i] != int16(want[i]) {
						t.Fatalf("k=%v w=%d: %s digit %d is %d, want %d", k, w, name, i, d[i], want[i])
					}
				}
			}
		} else {
			for name, d := range got {
				if r := Reconstruct(d, w); !r.Equal(rho) {
					t.Fatalf("k=%v w=%d: %s reconstructs to %v, want %v", k, w, name, r, rho)
				}
				checkWTNAFShape(t, d, w)
			}
		}
		buf = s.RecodeIntInto(weight, w, buf)
		if r := Reconstruct(buf, w); !r.Equal(ZTau{new(big.Int).SetUint64(weight), big.NewInt(0)}) {
			t.Fatalf("weight=%d w=%d: RecodeIntInto reconstructs to %v", weight, w, r)
		}
		checkWTNAFShape(t, buf, w)
	})
}

// checkWTNAFShape asserts the width-w TNAF digit shape: every nonzero
// digit is odd with |d| < 2^(w−1) and is followed by at least w − 1
// zeros (or by the end of the string).
func checkWTNAFShape(t *testing.T, d []int16, w int) {
	t.Helper()
	bound := 1 << (w - 1)
	for i, u := range d {
		if u == 0 {
			continue
		}
		if u&1 == 0 || int(u) >= bound || int(u) <= -bound {
			t.Fatalf("w=%d: digit %d is %d, outside the odd window", w, i, u)
		}
		for j := i + 1; j < i+w && j < len(d); j++ {
			if d[j] != 0 {
				t.Fatalf("w=%d: nonzero digits at %d and %d", w, i, j)
			}
		}
	}
}

func equal8(a, b []int8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
