package koblitz

import (
	"math/big"
	"math/rand"
	"testing"
)

// orderK233 is the sect233k1 group order (kept local so the koblitz
// package stays free of an ec import cycle; the value is pinned by the
// ec package's own tests).
var orderK233, _ = new(big.Int).SetString(
	"8000000000000000000000000000069d5bb915bcd46efb1ad5f173abdf", 16)

// reconstructModDelta checks that digits represent k modulo δ: the
// difference must be an exact multiple of δ.
func reconstructModDelta(t *testing.T, digits []int8, w int, k *big.Int) {
	t.Helper()
	got := Reconstruct(digits, w)
	diff := got.Sub(FromInt(k))
	_, r := RoundDiv(diff, Delta())
	if !r.IsZero() {
		t.Fatalf("w=%d k=%v: reconstruction %v not ≡ k (mod δ)", w, k, got)
	}
}

func ctTestScalars() []*big.Int {
	n := orderK233
	scalars := []*big.Int{
		big.NewInt(1), big.NewInt(2), big.NewInt(3), big.NewInt(7),
		new(big.Int).Sub(n, big.NewInt(1)),
		new(big.Int).Sub(n, big.NewInt(2)),
		new(big.Int).Lsh(big.NewInt(1), 231),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 232), big.NewInt(1)),
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 64; i++ {
		k := new(big.Int).Rand(rng, n)
		if k.Sign() == 0 {
			k.SetInt64(1)
		}
		scalars = append(scalars, k)
	}
	return scalars
}

// TestRecodeCTRoundTrip pins the constant-time recoding to the exact
// arithmetic: fixed length, valid digit set, and reconstruction ≡ k
// (mod δ) for edge and random scalars at every supported width.
func TestRecodeCTRoundTrip(t *testing.T) {
	var s Scratch
	for _, w := range []int{3, 4, 5, 6, 8} {
		halfW := 1 << (w - 1)
		for _, k := range ctTestScalars() {
			digits := s.RecodeCT(k, w)
			if len(digits) != CTDigits {
				t.Fatalf("w=%d: length %d, want fixed %d", w, len(digits), CTDigits)
			}
			for i, d := range digits {
				if d != 0 && (d&1 == 0 || int(d) >= halfW || int(d) <= -halfW) {
					t.Fatalf("w=%d k=%v digit[%d]=%d outside odd window", w, k, i, d)
				}
			}
			out := make([]int8, CTDigits)
			copy(out, digits)
			reconstructModDelta(t, out, w, k)
		}
	}
}

// TestRecodeCTMatchesFastPoint checks the CT and fast representatives
// agree modulo δ (they may differ as elements — the CT rounding skips
// the lattice correction — but must name the same subgroup scalar).
func TestRecodeCTMatchesFastPoint(t *testing.T) {
	var s Scratch
	for _, k := range ctTestScalars()[:16] {
		ct := make([]int8, CTDigits)
		copy(ct, s.RecodeCT(k, 4))
		fast := s.Recode(k, 4)
		a := Reconstruct(ct, 4)
		b := Reconstruct(fast, 4)
		_, r := RoundDiv(a.Sub(b), Delta())
		if !r.IsZero() {
			t.Fatalf("k=%v: CT and fast recodings differ mod δ", k)
		}
	}
}

// TestRecodeCTNormBound checks the CT partial reduction's residues
// satisfy N(ρ) ≤ N(δ), the bound CTDigits is sized for.
func TestRecodeCTNormBound(t *testing.T) {
	ctInit()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 256; i++ {
		k := new(big.Int).Rand(rng, orderK233)
		var kw [4]uint64
		buf := make([]byte, 30)
		k.FillBytes(buf)
		for i := range kw {
			for j := 0; j < 8; j++ {
				if b := 29 - 8*i - j; b >= 0 {
					kw[i] |= uint64(buf[b]) << (8 * j)
				}
			}
		}
		r0, r1 := partModCT(kw)
		rho := ZTau{i128ToBig(r0), i128ToBig(r1)}
		if rho.Norm().Cmp(Delta().Norm()) > 0 {
			t.Fatalf("k=%v: N(ρ) exceeds N(δ)", k)
		}
		diff := rho.Sub(FromInt(k))
		if _, r := RoundDiv(diff, Delta()); !r.IsZero() {
			t.Fatalf("k=%v: partModCT residue not ≡ k (mod δ)", k)
		}
	}
}

// i128ToBig converts a two's-complement i128 back to a big.Int (test
// helper only).
func i128ToBig(x i128) *big.Int {
	neg := int64(x.hi) < 0
	if neg {
		x = x.neg()
	}
	v := new(big.Int).SetUint64(x.hi)
	v.Lsh(v, 64)
	v.Or(v, new(big.Int).SetUint64(x.lo))
	if neg {
		v.Neg(v)
	}
	return v
}

// TestRecodeCTDeterministic: identical scalars recode identically
// across calls and scratches.
func TestRecodeCTDeterministic(t *testing.T) {
	var s1, s2 Scratch
	k, _ := new(big.Int).SetString("123456789abcdef0123456789abcdef012345678", 16)
	a := make([]int8, CTDigits)
	copy(a, s1.RecodeCT(k, 4))
	b := s2.RecodeCT(k, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("digit %d differs across scratches", i)
		}
	}
}
