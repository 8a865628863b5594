package repro

import (
	"bytes"
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	alice, err := GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	// ECDH both ways.
	ka, err := alice.ECDH(bob.PublicKey(), 32)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := bob.ECDH(alice.PublicKey(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ka, kb) {
		t.Fatal("ECDH keys disagree")
	}
	// A raw signature from Sign, verified through the key method.
	d := sha256.Sum256([]byte("public API test"))
	sig, err := Sign(alice, d[:], rnd)
	if err != nil {
		t.Fatal(err)
	}
	if !alice.PublicKey().Verify(d[:], sig) {
		t.Fatal("signature rejected")
	}
	if bob.PublicKey().Verify(d[:], sig) {
		t.Fatal("signature accepted under the wrong key")
	}
}

func TestScalarMultVariantsAgree(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	k := new(big.Int).Rand(rnd, Order())
	g := Generator()
	a := ScalarMult(k, g)
	b := ScalarBaseMult(k)
	c := ScalarMultConstantTime(k, g)
	if !a.Equal(b) || !a.Equal(c) {
		t.Fatal("the three multiplication paths disagree")
	}
	if err := ValidatePoint(a); err != nil {
		t.Fatalf("k·G failed validation: %v", err)
	}
}

func TestPointEncoding(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	key, _ := GenerateKey(rnd)
	pub := key.PublicKey().Point()
	for _, enc := range [][]byte{
		EncodePoint(pub),
		EncodePointCompressed(pub),
	} {
		p, err := DecodePoint(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Equal(pub) {
			t.Fatal("encoding round trip changed the point")
		}
	}
	if _, err := DecodePoint([]byte{0xff}); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestOrderIsACopy(t *testing.T) {
	n := Order()
	n.SetInt64(1) // mutating the copy must not corrupt the curve order
	if Order().Cmp(big.NewInt(1)) == 0 {
		t.Fatal("Order() exposes internal state")
	}
}
