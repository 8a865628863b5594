package ec

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/gf233"
)

// randPoint returns a random multiple of the generator (uniform in the
// prime-order subgroup).
func randPoint(rnd *rand.Rand) Affine {
	k := new(big.Int).Rand(rnd, Order)
	return ScalarMultGeneric(k, Gen())
}

func TestGeneratorOnCurve(t *testing.T) {
	g := Gen()
	if !g.OnCurve() {
		t.Fatal("standard sect233k1 generator fails the curve equation")
	}
	if g.Inf {
		t.Fatal("generator is infinity")
	}
}

// unreduced adds the reduction polynomial f(z) = z^233 + z^74 + 1 to a:
// the same field element, written with a bit above z^232.
func unreduced(a gf233.Elem) gf233.Elem {
	a[7] ^= 1 << 9
	a[2] ^= 1 << 10
	a[0] ^= 1
	return a
}

// TestOnCurveRejectsUnreduced holds OnCurve to canonical coordinates.
// Mul and Sqr reduce their inputs, so an unreduced copy of G satisfies
// the curve equation as the point it stands for, while the linear maps
// (Add, the trace, the half-trace table) read a different value. Every
// validator starts with OnCurve, so rejecting here keeps such a point
// away from all of them.
func TestOnCurveRejectsUnreduced(t *testing.T) {
	g := Gen()
	if gf233.Mul(unreduced(g.X), gf233.One) != g.X {
		t.Fatal("unreduced(x) is not the same field element as x")
	}
	for _, p := range []Affine{
		{X: unreduced(g.X), Y: g.Y},
		{X: g.X, Y: unreduced(g.Y)},
		{X: unreduced(g.X), Y: unreduced(g.Y)},
		{X: unreduced(gf233.Zero), Y: gf233.One}, // the order-2 point
	} {
		if p.OnCurve() {
			t.Errorf("OnCurve accepted unreduced coordinates %v", p)
		}
	}
}

func TestGeneratorOrder(t *testing.T) {
	// n·G = infinity and (n-1)·G = -G: verifies both the group order
	// constant and the scalar ladder.
	g := Gen()
	if got := ScalarMultGeneric(Order, g); !got.Inf {
		t.Fatalf("n*G = %v, want infinity", got)
	}
	nm1 := new(big.Int).Sub(Order, big.NewInt(1))
	if got := ScalarMultGeneric(nm1, g); !got.Equal(g.Neg()) {
		t.Fatal("(n-1)*G != -G")
	}
}

func TestAffineGroupLaws(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		p, q, r := randPoint(rnd), randPoint(rnd), randPoint(rnd)
		if !p.Add(q).Equal(q.Add(p)) {
			t.Fatal("addition not commutative")
		}
		if !p.Add(q).Add(r).Equal(p.Add(q.Add(r))) {
			t.Fatal("addition not associative")
		}
		if !p.Add(Infinity).Equal(p) || !Infinity.Add(p).Equal(p) {
			t.Fatal("infinity is not the identity")
		}
		if !p.Add(p.Neg()).Inf {
			t.Fatal("p + (-p) != infinity")
		}
		if !p.Add(p).Equal(p.Double()) {
			t.Fatal("p + p != 2p")
		}
		if !p.Sub(q).Equal(p.Add(q.Neg())) {
			t.Fatal("Sub inconsistent")
		}
		if !p.Add(q).OnCurve() || !p.Double().OnCurve() {
			t.Fatal("group operation left the curve")
		}
	}
}

func TestNegInvolution(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	p := randPoint(rnd)
	if !p.Neg().Neg().Equal(p) {
		t.Fatal("double negation is not the identity")
	}
	if !Infinity.Neg().Inf {
		t.Fatal("-infinity != infinity")
	}
	if !p.Neg().OnCurve() {
		t.Fatal("negation left the curve")
	}
}

func TestOrderTwoPoint(t *testing.T) {
	// (0, sqrt(b)) = (0, 1) has order 2.
	p := Affine{X: gf233.Zero, Y: gf233.Sqrt(B)}
	if !p.OnCurve() {
		t.Fatal("(0,1) not on curve")
	}
	if !p.Double().Inf {
		t.Fatal("2*(0,1) != infinity")
	}
	if !p.Neg().Equal(p) {
		t.Fatal("(0,1) should be its own negative")
	}
}

func TestLDMatchesAffine(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		p, q := randPoint(rnd), randPoint(rnd)
		// Randomise the projective representation of p: (λX, λ... ) —
		// scale X by λZ... use (X·λ, Y·λ², Z·λ).
		lam := gf233.Rand(rnd.Uint32)
		if lam == gf233.Zero {
			lam = gf233.One
		}
		lp := LD{
			X: gf233.Mul(p.X, lam),
			Y: gf233.Mul(p.Y, gf233.Sqr(lam)),
			Z: lam,
		}
		if got := lp.Affine(); !got.Equal(p) {
			t.Fatal("projective scaling changed the point")
		}
		if got := lp.Double().Affine(); !got.Equal(p.Double()) {
			t.Fatal("LD doubling != affine doubling")
		}
		if got := lp.AddMixed(q).Affine(); !got.Equal(p.Add(q)) {
			t.Fatal("mixed addition != affine addition")
		}
		if got := lp.SubMixed(q).Affine(); !got.Equal(p.Sub(q)) {
			t.Fatal("mixed subtraction != affine subtraction")
		}
		if got := lp.Neg().Affine(); !got.Equal(p.Neg()) {
			t.Fatal("LD negation != affine negation")
		}
	}
}

func TestLDExceptionalCases(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	p := randPoint(rnd)
	lp := FromAffine(p)
	if !lp.AddMixed(p).Equal(FromAffine(p.Double())) {
		t.Fatal("mixed addition p+p should fall back to doubling")
	}
	if !lp.AddMixed(p.Neg()).IsInfinity() {
		t.Fatal("p + (-p) should be infinity")
	}
	if !LDInfinity.AddMixed(p).Equal(FromAffine(p)) {
		t.Fatal("infinity + p != p")
	}
	if !lp.AddMixed(Infinity).Equal(lp) {
		t.Fatal("p + infinity != p")
	}
	if !LDInfinity.Double().IsInfinity() {
		t.Fatal("2*infinity != infinity")
	}
	if !LDInfinity.Affine().Inf {
		t.Fatal("LD infinity does not convert to affine infinity")
	}
	if !FromAffine(Infinity).IsInfinity() {
		t.Fatal("lifting affine infinity failed")
	}
}

func TestLDEqual(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	p, q := randPoint(rnd), randPoint(rnd)
	lam := gf233.MustHex("0xdeadbeef")
	lp := LD{X: gf233.Mul(p.X, lam), Y: gf233.Mul(p.Y, gf233.Sqr(lam)), Z: lam}
	if !lp.Equal(FromAffine(p)) {
		t.Fatal("Equal failed across representations")
	}
	if lp.Equal(FromAffine(q)) && !p.Equal(q) {
		t.Fatal("Equal confused distinct points")
	}
	if !LDInfinity.Equal(LDInfinity) || LDInfinity.Equal(lp) {
		t.Fatal("Equal wrong on infinity")
	}
}

func TestFrobeniusEndomorphism(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	for i := 0; i < 10; i++ {
		p, q := randPoint(rnd), randPoint(rnd)
		if !p.Frobenius().OnCurve() {
			t.Fatal("τ(p) not on curve")
		}
		// τ is additive: τ(p+q) = τ(p) + τ(q).
		if !p.Add(q).Frobenius().Equal(p.Frobenius().Add(q.Frobenius())) {
			t.Fatal("Frobenius not additive")
		}
		// Characteristic equation on the curve group: τ²(p) + 2p = µτ(p),
		// i.e. τ²(p) + 2p + τ(p) = ∞ for µ = -1.
		lhs := p.Frobenius().Frobenius().Add(p.Double()).Add(p.Frobenius())
		if !lhs.Inf {
			t.Fatalf("τ² + 2 - µτ does not annihilate the group (µ=%d)", Mu)
		}
	}
	if !Infinity.Frobenius().Inf {
		t.Fatal("τ(∞) != ∞")
	}
}

func TestFrobeniusLD(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	p := randPoint(rnd)
	lam := gf233.MustHex("0x1234567")
	lp := LD{X: gf233.Mul(p.X, lam), Y: gf233.Mul(p.Y, gf233.Sqr(lam)), Z: lam}
	if got := lp.Frobenius().Affine(); !got.Equal(p.Frobenius()) {
		t.Fatal("projective Frobenius != affine Frobenius")
	}
}

func TestScalarMultGeneric(t *testing.T) {
	g := Gen()
	// Small-scalar cross-check against iterated addition.
	sum := Infinity
	for k := 0; k <= 20; k++ {
		got := ScalarMultGeneric(big.NewInt(int64(k)), g)
		if !got.Equal(sum) {
			t.Fatalf("%d*G mismatch", k)
		}
		sum = sum.Add(g)
	}
	// Negative scalars: (-k)P = k(-P) = -(kP).
	k := big.NewInt(12345)
	neg := ScalarMultGeneric(new(big.Int).Neg(k), g)
	if !neg.Equal(ScalarMultGeneric(k, g).Neg()) {
		t.Fatal("negative scalar mismatch")
	}
	// Distributivity over scalar addition: (a+b)G = aG + bG.
	rnd := rand.New(rand.NewSource(8))
	a := new(big.Int).Rand(rnd, Order)
	b := new(big.Int).Rand(rnd, Order)
	ab := new(big.Int).Add(a, b)
	lhs := ScalarMultGeneric(ab, g)
	rhs := ScalarMultGeneric(a, g).Add(ScalarMultGeneric(b, g))
	if !lhs.Equal(rhs) {
		t.Fatal("(a+b)G != aG + bG")
	}
}

func TestEncodeDecodeUncompressed(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	for i := 0; i < 10; i++ {
		p := randPoint(rnd)
		got, err := Decode(p.Encode())
		if err != nil {
			t.Fatalf("Decode(Encode(p)): %v", err)
		}
		if !got.Equal(p) {
			t.Fatal("uncompressed round trip changed the point")
		}
	}
	// Infinity round trip.
	got, err := Decode(Infinity.Encode())
	if err != nil || !got.Inf {
		t.Fatal("infinity round trip failed")
	}
}

func TestEncodeDecodeCompressed(t *testing.T) {
	rnd := rand.New(rand.NewSource(10))
	for i := 0; i < 10; i++ {
		p := randPoint(rnd)
		enc := p.EncodeCompressed()
		if len(enc) != 1+gf233.ByteLen {
			t.Fatalf("compressed length %d", len(enc))
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(compressed): %v", err)
		}
		if !got.Equal(p) {
			t.Fatal("compressed round trip changed the point")
		}
	}
	// The order-2 point (0, 1) compresses too.
	p := Affine{X: gf233.Zero, Y: gf233.One}
	got, err := Decode(p.EncodeCompressed())
	if err != nil || !got.Equal(p) {
		t.Fatal("compression of the order-2 point failed")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x05},
		{0x04, 1, 2, 3},
		{0x02},
		make([]byte, 1+2*gf233.ByteLen), // prefix 0x00 with trailing bytes
	}
	for i, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("case %d: Decode accepted invalid input", i)
		}
	}
	// A valid-length uncompressed encoding of a non-curve point.
	bad := make([]byte, 1+2*gf233.ByteLen)
	bad[0] = prefixUncompressed
	bad[5] = 0x17
	if _, err := Decode(bad); err != ErrNotOnCurve {
		t.Errorf("expected ErrNotOnCurve, got %v", err)
	}
}

func TestSolveQuadratic(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	solvable, unsolvable := 0, 0
	for i := 0; i < 40; i++ {
		c := gf233.Rand(rnd.Uint32)
		h, ok := SolveQuadratic(c)
		if ok {
			solvable++
			if gf233.Add(gf233.Sqr(h), h) != c {
				t.Fatal("SolveQuadratic returned a non-solution")
			}
		} else {
			unsolvable++
			if gf233.Trace(c) != 1 {
				t.Fatal("SolveQuadratic failed on a trace-0 input")
			}
		}
	}
	// Roughly half of random elements have trace 0.
	if solvable == 0 || unsolvable == 0 {
		t.Fatalf("suspicious solvable/unsolvable split: %d/%d", solvable, unsolvable)
	}
}

func BenchmarkAffineAdd(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	p, q := randPoint(rnd), randPoint(rnd)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p = p.Add(q)
	}
}

func BenchmarkOnCurve(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	p := randPoint(rnd)
	ok := true
	for i := 0; i < b.N; i++ {
		ok = ok && p.OnCurve()
	}
	if !ok {
		b.Fatal("random point off the curve")
	}
}

func BenchmarkLDAddMixed(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	p, q := FromAffine(randPoint(rnd)), randPoint(rnd)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p = p.AddMixed(q)
	}
}

func BenchmarkLDDouble(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	p := FromAffine(randPoint(rnd))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p = p.Double()
	}
}

func BenchmarkScalarMultGeneric(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	k := new(big.Int).Rand(rnd, Order)
	g := Gen()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScalarMultGeneric(k, g)
	}
}
