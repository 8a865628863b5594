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

// invBig is the word inversion through its big.Int loads and stores.
func invBig(dst, a *big.Int) {
	var x Residue
	x.SetBig(a).Inv(&x).Big(dst)
}

// TestModNInv pins the safegcd inversion against big.Int.ModInverse
// over random residues and the boundary values, with 0 mapping to 0.
func TestModNInv(t *testing.T) {
	rnd := rand.New(rand.NewSource(90))
	dst := new(big.Int)
	want := new(big.Int)
	check := func(a *big.Int) {
		t.Helper()
		invBig(dst, a)
		want.SetInt64(0)
		if a.Sign() != 0 {
			want.ModInverse(a, ec.Order)
		}
		if dst.Cmp(want) != 0 {
			t.Fatalf("Inv(%v) = %v, want %v", a, dst, want)
		}
	}
	for _, v := range []int64{0, 1, 2, 3, 4, 255, 1 << 32} {
		check(big.NewInt(v))
	}
	for i := uint(0); i < 62; i++ {
		check(new(big.Int).Lsh(big.NewInt(1), 3*i))
	}
	check(new(big.Int).Sub(ec.Order, big.NewInt(1)))
	check(new(big.Int).Sub(ec.Order, big.NewInt(2)))
	check(new(big.Int).Rsh(ec.Order, 1))
	for i := 0; i < 500; i++ {
		a := new(big.Int).Rand(rnd, ec.Order)
		if a.Sign() == 0 {
			continue
		}
		check(a)
	}
}

// TestSafegcdStepBound holds the fixed divstep count to Bernstein–Yang
// Thm 11.2 for the order's bit length d: f = n and g < n give
// f² + 4g² ≤ 5·2^(2d), and then ⌊(49d + 57)/17⌋ divsteps (for d ≥ 46)
// take g to 0.
func TestSafegcdStepBound(t *testing.T) {
	d := ec.Order.BitLen()
	if d < 46 {
		t.Fatalf("order of %d bits: Thm 11.2's bound for d < 46 is (49d + 80)/17", d)
	}
	if need, got := (49*d+57)/17, divstepBatches*62; got < need {
		t.Fatalf("%d batches of 62 divsteps = %d < %d needed for %d bits", divstepBatches, got, need, d)
	}
}

// FuzzModNInvVsBig holds Inv to big.Int.ModInverse on fuzzed 30-byte
// values reduced mod n, with 0 mapping to 0.
func FuzzModNInvVsBig(f *testing.F) {
	f.Add([]byte{1})
	f.Add(ec.Order.Bytes())
	f.Add(new(big.Int).Sub(ec.Order, big.NewInt(1)).Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 30 {
			b = b[:30]
		}
		a := new(big.Int).SetBytes(b)
		a.Mod(a, ec.Order)
		want := new(big.Int)
		if a.Sign() != 0 {
			want.ModInverse(a, ec.Order)
		}
		got := new(big.Int)
		invBig(got, a)
		if got.Cmp(want) != 0 {
			t.Fatalf("Inv(%v) = %v, want %v", a, got, want)
		}
	})
}

// FuzzBatchInvVsBig holds BatchInv to big.Int.ModInverse: a fuzzed
// length in 1..64 and values cut from the input in 30-byte chunks,
// reduced into [1, n−1] and reused cyclically, so short inputs give
// batches of repeated values.
func FuzzBatchInvVsBig(f *testing.F) {
	nm1 := new(big.Int).Sub(ec.Order, big.NewInt(1)).FillBytes(make([]byte, 30))
	f.Add(uint8(0), []byte{1})
	f.Add(uint8(2), nm1)
	f.Add(uint8(63), append(append([]byte{}, nm1...), 1))
	f.Fuzz(func(t *testing.T, ln uint8, b []byte) {
		n := 1 + int(ln)%64
		var chunks [][]byte
		for len(b) > 30 {
			chunks = append(chunks, b[:30])
			b = b[30:]
		}
		chunks = append(chunks, b)
		vals := make([]Residue, n)
		want := make([]*big.Int, n)
		for i := range vals {
			v := new(big.Int).SetBytes(chunks[i%len(chunks)])
			v.Mod(v, ec.Order)
			if v.Sign() == 0 {
				v.SetInt64(1)
			}
			vals[i].SetBig(v)
			want[i] = v.ModInverse(v, ec.Order)
		}
		out := make([]Residue, n)
		BatchInv(vals, out)
		got := new(big.Int)
		for i := range out {
			if out[i].Big(got).Cmp(want[i]) != 0 {
				t.Fatalf("len %d: out[%d] = %v, want %v", n, i, got, want[i])
			}
		}
	})
}

// BenchmarkModNInv times Inv, with its big.Int load and store, against
// big.Int.ModInverse on the same operands.
func BenchmarkModNInv(b *testing.B) {
	rnd := rand.New(rand.NewSource(93))
	ops := make([]*big.Int, 64)
	for i := range ops {
		ops[i] = new(big.Int).Rand(rnd, ec.Order)
		if ops[i].Sign() == 0 {
			ops[i].SetInt64(1)
		}
	}
	dst := new(big.Int)
	b.Run("safegcd", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			invBig(dst, ops[i%len(ops)])
		}
	})
	b.Run("big", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst.ModInverse(ops[i%len(ops)], ec.Order)
		}
	})
}

// TestModNMul pins the word product against the straightforward
// Mul+Mod evaluation, including an aliased destination, and the masked
// sum against Add+Mod, on 200 random pairs and every pair of the
// boundary values 0, 1 and n−1.
func TestModNMul(t *testing.T) {
	rnd := rand.New(rand.NewSource(91))
	want, got := new(big.Int), new(big.Int)
	check := func(a, b *big.Int) {
		t.Helper()
		var x, y, z Residue
		x.SetBig(a)
		y.SetBig(b)
		want.Add(a, b)
		want.Mod(want, ec.Order)
		if z.Add(&x, &y).Big(got).Cmp(want) != 0 {
			t.Fatalf("Add(%v, %v) = %v, want %v", a, b, got, want)
		}
		want.Mul(a, b)
		want.Mod(want, ec.Order)
		if z.Mul(&x, &y).Big(got).Cmp(want) != 0 {
			t.Fatalf("Mul(%v, %v) = %v, want %v", a, b, got, want)
		}
		// Aliased: the destination is the first operand.
		if x.Mul(&x, &y).Big(got).Cmp(want) != 0 {
			t.Fatalf("aliased Mul diverged")
		}
	}
	for i := 0; i < 200; i++ {
		check(new(big.Int).Rand(rnd, ec.Order), new(big.Int).Rand(rnd, ec.Order))
	}
	edges := []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(ec.Order, big.NewInt(1))}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
}

// TestReduceModOrder checks the conditional-subtraction reduction over
// the full 233-bit input range it promises to handle.
func TestReduceModOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(92))
	limit := new(big.Int).Lsh(big.NewInt(1), 233)
	want := new(big.Int)
	for i := 0; i < 500; i++ {
		v := new(big.Int).Rand(rnd, limit)
		want.Mod(v, ec.Order)
		ReduceModOrder(v)
		if v.Cmp(want) != 0 {
			t.Fatalf("ReduceModOrder diverged at iteration %d", i)
		}
	}
	for _, v := range []*big.Int{
		new(big.Int),
		new(big.Int).Sub(ec.Order, big.NewInt(1)),
		new(big.Int).Set(ec.Order),
		new(big.Int).Sub(limit, big.NewInt(1)),
	} {
		want.Mod(v, ec.Order)
		ReduceModOrder(v)
		if v.Cmp(want) != 0 {
			t.Fatalf("ReduceModOrder boundary diverged")
		}
	}
}

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

// TestSignSCTMatchesBig pins the fixed-width ECDSA assembly, fed the
// word inverse of k, to the big.Int formula s = k⁻¹(e + r·d) mod n.
func TestSignSCTMatchesBig(t *testing.T) {
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
		var kw, ew, rw, dw Residue
		kw.SetBig(k).Inv(&kw)
		s := SignSCT(&kw, ew.SetBig(e), rw.SetBig(r), dw.SetBig(d))
		if want.Cmp(s.Big(got)) != 0 {
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

// ctParams are internal/dudect's gate settings: a smoke run of 1,500
// samples at |t| < 50, and 30,000 at the conventional 4.5 under
// CT_FULL=1.
func ctParams() (samples int, threshold float64) {
	if os.Getenv("CT_FULL") == "1" {
		return 30000, 4.5
	}
	return 1500, 50
}

// denseResidue is the dense class of the mod-n timing tests.
func denseResidue() Residue {
	dense, _ := new(big.Int).SetString(
		"5555555555555555555555555555555555555555555555555555555555", 16)
	return *new(Residue).SetBig(dense)
}

// TestDudectModNInvCT is the timing leg for the inversion itself,
// words in and words out (the big.Int loads and stores track the
// operand's length): a = 1 against a dense residue, gated on Welch's t.
func TestDudectModNInvCT(t *testing.T) {
	samples, threshold := ctParams()
	classes := [2]Residue{{1}, denseResidue()}
	var sink Residue
	op := func(a *Residue) func() {
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

// TestDudectBatchInvCT times the shared batch inversion, words in and
// words out, on a batch of eight ones against eight dense residues:
// the engine runs signing nonces through it, fast and hardened alike.
func TestDudectBatchInvCT(t *testing.T) {
	samples, threshold := ctParams()
	var classes [2][8]Residue
	for i := range classes[0] {
		classes[0][i] = Residue{1}
		classes[1][i] = denseResidue()
	}
	var out [8]Residue
	op := func(vals *[8]Residue) func() {
		return func() { BatchInv(vals[:], out[:]) }
	}
	res := dudect.Measure(dudect.Options{Samples: samples, Seed: 46},
		[2]func(){op(&classes[0]), op(&classes[1])})
	t.Logf("modn batch inv: t = %.2f over %d samples/class (means %.0fns / %.0fns)",
		res.T, res.Samples, res.Class0Ns, res.Class1Ns)
	if math.Abs(res.T) > threshold {
		t.Errorf("batch inversion mod n timing depends on the values: |t| = %.2f > %.1f", math.Abs(res.T), threshold)
	}
}
