package core

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ec"
)

func randScalar(rnd *rand.Rand) *big.Int {
	k := new(big.Int).Rand(rnd, ec.Order)
	if k.Sign() == 0 {
		k.SetInt64(1)
	}
	return k
}

func TestScalarMultMatchesGeneric(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	g := ec.Gen()
	for i := 0; i < 15; i++ {
		k := randScalar(rnd)
		want := ec.ScalarMultGeneric(k, g)
		if got := ScalarMult(k, g); !got.Equal(want) {
			t.Fatalf("ScalarMult(%v) mismatch", k)
		}
	}
}

func TestScalarMultSmallScalars(t *testing.T) {
	g := ec.Gen()
	acc := ec.Infinity
	for k := int64(0); k <= 50; k++ {
		got := ScalarMult(big.NewInt(k), g)
		if !got.Equal(acc) {
			t.Fatalf("%d*G mismatch", k)
		}
		acc = acc.Add(g)
	}
}

func TestScalarMultRandomPoints(t *testing.T) {
	// Not just the generator: random base points exercise AlphaPoints.
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 5; i++ {
		p := ec.ScalarMultGeneric(randScalar(rnd), ec.Gen())
		k := randScalar(rnd)
		want := ec.ScalarMultGeneric(k, p)
		if got := ScalarMult(k, p); !got.Equal(want) {
			t.Fatal("random-base ScalarMult mismatch")
		}
	}
}

func TestScalarMultAllWidths(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	g := ec.Gen()
	k := randScalar(rnd)
	want := ec.ScalarMultGeneric(k, g)
	for w := 2; w <= 8; w++ {
		if got := ScalarMultW(k, g, w); !got.Equal(want) {
			t.Fatalf("w=%d: ScalarMultW mismatch", w)
		}
	}
}

func TestScalarMultEdgeCases(t *testing.T) {
	g := ec.Gen()
	if !ScalarMult(big.NewInt(0), g).Inf {
		t.Fatal("0*G != infinity")
	}
	if !ScalarMult(big.NewInt(5), ec.Infinity).Inf {
		t.Fatal("5*infinity != infinity")
	}
	if !ScalarMult(ec.Order, g).Inf {
		t.Fatal("n*G != infinity")
	}
	// k ≡ k + n (mod n) on the curve group.
	k := big.NewInt(987654321)
	kn := new(big.Int).Add(k, ec.Order)
	if !ScalarMult(k, g).Equal(ScalarMult(kn, g)) {
		t.Fatal("(k+n)*G != k*G")
	}
}

func TestScalarBaseMultMatchesScalarMult(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	g := ec.Gen()
	for i := 0; i < 10; i++ {
		k := randScalar(rnd)
		if !ScalarBaseMult(k).Equal(ScalarMult(k, g)) {
			t.Fatal("ScalarBaseMult != ScalarMult on G")
		}
	}
	if !ScalarBaseMult(big.NewInt(0)).Inf {
		t.Fatal("0*G != infinity")
	}
}

func TestFixedBaseTable(t *testing.T) {
	fb := NewFixedBase(ec.Gen(), WFixed)
	if fb.W() != WFixed {
		t.Fatal("wrong width")
	}
	if fb.TableSize() != 1<<(WFixed-2) {
		t.Fatalf("table size %d, want %d", fb.TableSize(), 1<<(WFixed-2))
	}
	if !fb.Point().Equal(ec.Gen()) {
		t.Fatal("wrong base point")
	}
	rnd := rand.New(rand.NewSource(5))
	k := randScalar(rnd)
	if !fb.ScalarMult(k).Equal(ec.ScalarMultGeneric(k, ec.Gen())) {
		t.Fatal("FixedBase.ScalarMult mismatch")
	}
}

func TestLadderMatchesGeneric(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	g := ec.Gen()
	for i := 0; i < 10; i++ {
		k := randScalar(rnd)
		want := ec.ScalarMultGeneric(k, g)
		if got := ScalarMultLadder(k, g); !got.Equal(want) {
			t.Fatalf("ladder mismatch for k=%v", k)
		}
	}
}

func TestLadderSmallScalars(t *testing.T) {
	g := ec.Gen()
	for k := int64(0); k <= 40; k++ {
		want := ec.ScalarMultGeneric(big.NewInt(k), g)
		if got := ScalarMultLadder(big.NewInt(k), g); !got.Equal(want) {
			t.Fatalf("ladder %d*G mismatch", k)
		}
	}
}

func TestLadderEdgeCases(t *testing.T) {
	g := ec.Gen()
	if !ScalarMultLadder(big.NewInt(0), g).Inf {
		t.Fatal("ladder 0*G != infinity")
	}
	if !ScalarMultLadder(big.NewInt(7), ec.Infinity).Inf {
		t.Fatal("ladder on infinity")
	}
	// Negative scalar.
	if !ScalarMultLadder(big.NewInt(-3), g).Equal(ec.ScalarMultGeneric(big.NewInt(3), g).Neg()) {
		t.Fatal("ladder negative scalar")
	}
	// n−1 and n: exercise the Z2 = 0 and Z1 = 0 exceptional exits.
	nm1 := new(big.Int).Sub(ec.Order, big.NewInt(1))
	if !ScalarMultLadder(nm1, g).Equal(g.Neg()) {
		t.Fatal("ladder (n-1)*G != -G")
	}
	if !ScalarMultLadder(ec.Order, g).Inf {
		t.Fatal("ladder n*G != infinity")
	}
	// The order-2 point (0, 1).
	p2 := ec.Affine{Y: ec.B}
	if !ScalarMultLadder(big.NewInt(3), p2).Equal(p2) {
		t.Fatal("ladder 3*(0,1) != (0,1)")
	}
	if !ScalarMultLadder(big.NewInt(4), p2).Inf {
		t.Fatal("ladder 4*(0,1) != infinity")
	}
}

func TestLadderAgreesWithWTNAF(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	p := ec.ScalarMultGeneric(randScalar(rnd), ec.Gen())
	for i := 0; i < 5; i++ {
		k := randScalar(rnd)
		if !ScalarMultLadder(k, p).Equal(ScalarMult(k, p)) {
			t.Fatal("ladder and wTNAF disagree")
		}
	}
}

func TestGenerateKey(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	for i := 0; i < 5; i++ {
		key, err := GenerateKey(rnd)
		if err != nil {
			t.Fatal(err)
		}
		if key.D.Sign() <= 0 || key.D.Cmp(ec.Order) >= 0 {
			t.Fatal("private scalar out of range")
		}
		if !key.Public.OnCurve() || key.Public.Inf {
			t.Fatal("invalid public key")
		}
		if !key.Public.Equal(ec.ScalarMultGeneric(key.D, ec.Gen())) {
			t.Fatal("public key != D*G")
		}
	}
}

func TestGenerateKeyRandomFailure(t *testing.T) {
	_, err := GenerateKey(bytes.NewReader(nil))
	if !errors.Is(err, ErrRandom) {
		t.Fatalf("expected ErrRandom, got %v", err)
	}
}

func TestScalarMultHomomorphism(t *testing.T) {
	// (a·b)G = a·(b·G): exercises multiplication with arbitrary base.
	rnd := rand.New(rand.NewSource(9))
	a, b := randScalar(rnd), randScalar(rnd)
	ab := new(big.Int).Mul(a, b)
	ab.Mod(ab, ec.Order)
	lhs := ScalarBaseMult(ab)
	rhs := ScalarMult(a, ScalarBaseMult(b))
	if !lhs.Equal(rhs) {
		t.Fatal("(ab)G != a(bG)")
	}
}

func BenchmarkScalarMultKP(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	k := randScalar(rnd)
	p := ec.ScalarMultGeneric(randScalar(rnd), ec.Gen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScalarMult(k, p)
	}
}

func BenchmarkScalarBaseMultKG(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	k := randScalar(rnd)
	ScalarBaseMult(k) // warm the table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScalarBaseMult(k)
	}
}

func BenchmarkScalarMultLadder(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	k := randScalar(rnd)
	p := ec.ScalarMultGeneric(randScalar(rnd), ec.Gen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScalarMultLadder(k, p)
	}
}
