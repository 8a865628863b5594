package core

import (
	"math"
	"math/big"
	"math/rand"
	"os"
	"testing"

	"repro/internal/dudect"
	"repro/internal/ec"
)

func modnScalars() []*big.Int {
	n := ec.Order
	vals := []*big.Int{
		big.NewInt(1), big.NewInt(2), big.NewInt(3),
		new(big.Int).Sub(n, big.NewInt(1)),
		new(big.Int).Sub(n, big.NewInt(2)),
		new(big.Int).Lsh(big.NewInt(1), 231),
		big.NewInt(0xffffffff),
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 128; i++ {
		v := new(big.Int).Rand(rng, n)
		if v.Sign() == 0 {
			v.SetInt64(1)
		}
		vals = append(vals, v)
	}
	return vals
}

// TestSignSCTMatchesBig pins the fixed-width ECDSA assembly to the
// big.Int formula s = k⁻¹(e + r·d) mod n.
func TestSignSCTMatchesBig(t *testing.T) {
	var m ModN
	vals := modnScalars()
	n := ec.Order
	want, got, kinv := new(big.Int), new(big.Int), new(big.Int)
	check := func(k, e, r, d *big.Int) {
		t.Helper()
		kinv.ModInverse(k, n)
		want.Mul(r, d)
		want.Add(want, e)
		want.Mul(want, kinv)
		want.Mod(want, n)
		m.SignSCT(got, k, e, r, d)
		if want.Cmp(got) != 0 {
			t.Fatalf("SignSCT(k=%v, e=%v) mismatch: got %v want %v", k, e, got, want)
		}
	}
	for i := 0; i+3 < len(vals); i += 4 {
		check(vals[i], vals[i+1], vals[i+2], vals[i+3])
	}
	zero, one, nm1 := new(big.Int), big.NewInt(1), new(big.Int).Sub(n, big.NewInt(1))
	for _, k := range []*big.Int{one, nm1} {
		for _, e := range []*big.Int{zero, vals[9]} {
			check(k, e, vals[10], vals[11])
		}
	}
}

// TestDudectModNInvCT is the timing leg for the inversion itself,
// words in and words out (the big.Int wrapper's conversions track the
// operand's length): a = 1 against a dense residue, gated on Welch's
// t with internal/dudect's settings — a smoke run of 1,500 samples at
// |t| < 50, and 30,000 at the conventional 4.5 under CT_FULL=1.
func TestDudectModNInvCT(t *testing.T) {
	samples, threshold := 1500, 50.0
	if os.Getenv("CT_FULL") == "1" {
		samples, threshold = 30000, 4.5
	}
	dense, _ := new(big.Int).SetString(
		"5555555555555555555555555555555555555555555555555555555555", 16)
	classes := [2]words4{{1}, new(ModN).words(dense)}
	var sink words4
	op := func(a *words4) func() {
		return func() { sink = invModN(a) }
	}
	res := dudect.Measure(dudect.Options{Samples: samples, Seed: 45},
		[2]func(){op(&classes[0]), op(&classes[1])})
	t.Logf("modn inv: t = %.2f over %d samples/class (means %.0fns / %.0fns)",
		res.T, res.Samples, res.Class0Ns, res.Class1Ns)
	if math.Abs(res.T) > threshold {
		t.Errorf("inversion mod n timing depends on the operand: |t| = %.2f > %.1f", math.Abs(res.T), threshold)
	}
	_ = sink
}
