package repro

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestPublicKeyEncodingRoundTrip is the acceptance path of the opaque
// key types: NewPublicKey(priv.Public().Bytes()) reconstructs an
// Equal() key from both the compressed and uncompressed encodings.
func TestPublicKeyEncodingRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	priv, err := GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	pub := priv.PublicKey()
	if len(pub.Bytes()) != PublicKeySize {
		t.Fatalf("uncompressed length %d, want %d", len(pub.Bytes()), PublicKeySize)
	}
	if len(pub.BytesCompressed()) != PublicKeyCompressedSize {
		t.Fatalf("compressed length %d, want %d", len(pub.BytesCompressed()), PublicKeyCompressedSize)
	}
	for _, enc := range [][]byte{pub.Bytes(), pub.BytesCompressed()} {
		back, err := NewPublicKey(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(pub) || !pub.Equal(back) {
			t.Fatal("encoding round trip changed the key")
		}
	}
	// crypto.Signer's Public() returns the same key.
	if signerPub, ok := priv.Public().(*PublicKey); !ok || !signerPub.Equal(pub) {
		t.Fatal("Public() does not return the concrete *PublicKey")
	}
}

func TestNewPublicKeyRejectsInvalid(t *testing.T) {
	rnd := rand.New(rand.NewSource(22))
	priv, _ := GenerateKey(rnd)
	good := priv.PublicKey().Bytes()
	cases := map[string][]byte{
		"nil":        nil,
		"empty":      {},
		"infinity":   {0x00},
		"bad prefix": append([]byte{0xff}, good[1:]...),
		"truncated":  good[:len(good)-1],
		"trailing":   append(append([]byte{}, good...), 0),
		"off curve": func() []byte {
			b := append([]byte{}, good...)
			b[len(b)-1] ^= 1 // corrupt y
			return b
		}(),
	}
	for name, b := range cases {
		if _, err := NewPublicKey(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPrivateKeyBytesRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	priv, err := GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	blob := priv.Bytes()
	if len(blob) != PrivateKeySize {
		t.Fatalf("scalar length %d, want %d", len(blob), PrivateKeySize)
	}
	back, err := NewPrivateKey(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(priv) || !back.PublicKey().Equal(priv.PublicKey()) {
		t.Fatal("round trip changed the key")
	}
	other, _ := GenerateKey(rnd)
	if priv.Equal(other) {
		t.Fatal("distinct keys compare equal")
	}
	if priv.Equal(nil) || priv.PublicKey().Equal(nil) {
		t.Fatal("Equal(nil) returned true")
	}
}

// TestScalarValidationBothPaths pins scalar-range validation at the
// root constructor: NewPrivateKey rejects d = 0 and d = n (and a short
// encoding) through the single centralized check in internal/core.
func TestScalarValidationBothPaths(t *testing.T) {
	zero := make([]byte, PrivateKeySize)
	n := Order().FillBytes(make([]byte, PrivateKeySize))
	if _, err := NewPrivateKey(zero); err == nil {
		t.Error("d = 0 accepted")
	}
	if _, err := NewPrivateKey(n); err == nil {
		t.Error("d = n accepted")
	}
	if _, err := NewPrivateKey(zero[:PrivateKeySize-1]); err == nil {
		t.Error("short encoding accepted")
	}
}

// TestCompatWrappersAgreeWithMethods pins the key methods that replace
// the removed loose-function wrappers (SharedKey became
// PrivateKey.ECDH): both ECDH directions derive the same key, and the
// raw shared secret is symmetric and SharedSecretSize bytes long.
func TestCompatWrappersAgreeWithMethods(t *testing.T) {
	rnd := rand.New(rand.NewSource(24))
	a, _ := GenerateKey(rnd)
	b, _ := GenerateKey(rnd)
	k1, err1 := a.ECDH(b.PublicKey(), 32)
	k2, err2 := b.ECDH(a.PublicKey(), 32)
	if err1 != nil || err2 != nil || !bytes.Equal(k1, k2) {
		t.Fatalf("ECDH directions disagree: %v %v", err1, err2)
	}
	raw1, err1 := a.SharedSecret(b.PublicKey())
	raw2, err2 := b.SharedSecret(a.PublicKey())
	if err1 != nil || err2 != nil || !bytes.Equal(raw1, raw2) {
		t.Fatalf("raw shared secrets disagree: %v %v", err1, err2)
	}
	if len(raw1) != SharedSecretSize {
		t.Fatalf("raw secret length %d, want %d", len(raw1), SharedSecretSize)
	}
}

func TestPublicKeyFromPoint(t *testing.T) {
	rnd := rand.New(rand.NewSource(25))
	priv, _ := GenerateKey(rnd)
	pub, err := PublicKeyFromPoint(priv.PublicKey().Point())
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Equal(priv.PublicKey()) {
		t.Fatal("PublicKeyFromPoint changed the key")
	}
	var inf Point
	inf.Inf = true
	if _, err := PublicKeyFromPoint(inf); err == nil {
		t.Fatal("identity accepted as a public key")
	}
}
