package repro

// Fuzz targets for the two hostile-input parsers the redesign added:
// the DER signature codec and the public-key constructor. Both must
// never panic, and anything they accept must re-serialize to exactly
// the bytes that were parsed (canonical encodings only). Short smoke
// runs of these targets are wired into `make api` / `make ci`; longer
// runs: go test . -run '^$' -fuzz=FuzzParseSignatureDER
//
// The corpus seeds cover the interesting boundary shapes: valid
// encodings of real signatures and keys, truncations, non-minimal DER
// integers, bad point prefixes and off-curve abscissas.

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"repro/internal/ecdh"
)

func fuzzKeyAndSig(f *testing.F) (*PrivateKey, *Signature) {
	f.Helper()
	rnd := rand.New(rand.NewSource(51))
	priv, err := GenerateKey(rnd)
	if err != nil {
		f.Fatal(err)
	}
	digest := sha256.Sum256([]byte("fuzz seed"))
	sig, err := SignDeterministic(priv, digest[:])
	if err != nil {
		f.Fatal(err)
	}
	return priv, sig
}

func FuzzParseSignatureDER(f *testing.F) {
	_, sig := fuzzKeyAndSig(f)
	der, err := sig.MarshalASN1()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(der)
	f.Add(der[:len(der)-1])                       // truncated
	f.Add(append([]byte{}, der[1:]...))           // missing sequence tag
	f.Add(append(append([]byte{}, der...), 0x00)) // trailing byte
	// Non-minimal r: 0x00-prefixed magnitude with patched lengths.
	nm := append([]byte{}, der[:4]...)
	nm[1]++
	nm[3]++
	nm = append(nm, 0x00)
	f.Add(append(nm, der[4:]...))
	f.Add([]byte{0x30, 0x00})                                     // empty sequence
	f.Add([]byte{0x30, 0x06, 0x02, 0x01, 0x01, 0x02, 0x01, 0x01}) // r = s = 1
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		sig, err := ParseSignatureDER(b)
		if err != nil {
			return
		}
		// Anything accepted is well-formed and canonical: components in
		// [1, n-1] and a byte-exact serialize round trip.
		if sig.R.Sign() <= 0 || sig.R.Cmp(Order()) >= 0 ||
			sig.S.Sign() <= 0 || sig.S.Cmp(Order()) >= 0 {
			t.Fatalf("accepted out-of-range signature %x", b)
		}
		reenc, err := sig.MarshalASN1()
		if err != nil {
			t.Fatalf("parsed signature does not re-serialize: %v", err)
		}
		if !bytes.Equal(reenc, b) {
			t.Fatalf("non-canonical DER accepted: parsed %x, re-encodes %x", b, reenc)
		}
		// The raw codec agrees on the same (r, s).
		back, err := ParseSignature(sig.Bytes())
		if err != nil || back.R.Cmp(sig.R) != 0 || back.S.Cmp(sig.S) != 0 {
			t.Fatalf("raw cross-codec round trip failed for %x", b)
		}
	})
}

func FuzzNewPublicKey(f *testing.F) {
	priv, _ := fuzzKeyAndSig(f)
	pub := priv.PublicKey()
	unc, cmp := pub.Bytes(), pub.BytesCompressed()
	f.Add(unc)
	f.Add(cmp)
	f.Add(unc[:len(unc)-1]) // truncated
	f.Add(cmp[:len(cmp)-1])
	badPrefix := append([]byte{}, unc...)
	badPrefix[0] = 0x05
	f.Add(badPrefix)
	flipped := append([]byte{}, cmp...)
	flipped[0] ^= 1 // other square root
	f.Add(flipped)
	offCurve := append([]byte{}, cmp...)
	offCurve[len(offCurve)-1] ^= 1 // abscissa with (likely) no point
	f.Add(offCurve)
	f.Add([]byte{0x00}) // infinity: a valid point encoding, never a valid key
	f.Add([]byte{})
	// Curve points outside the subgroup: the small-order points and
	// P + each.
	_, torsion := torsionInputs(f, 74)
	for _, q := range torsion {
		f.Add(EncodePointCompressed(q))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		pub, err := NewPublicKey(b)
		if err != nil {
			return
		}
		// Anything accepted is a subgroup point by the generic n·P = ∞
		// ladder, the oracle for the halving test NewPublicKey runs,
		// and its chosen encoding round-trips byte-exactly.
		if err := ecdh.Validate(pub.Point()); err != nil {
			t.Fatalf("accepted key fails point validation: %v (input %x)", err, b)
		}
		var reenc []byte
		switch len(b) {
		case PublicKeySize:
			reenc = pub.Bytes()
		case PublicKeyCompressedSize:
			reenc = pub.BytesCompressed()
		default:
			t.Fatalf("accepted encoding of unexpected length %d", len(b))
		}
		if !bytes.Equal(reenc, b) {
			t.Fatalf("non-canonical key encoding accepted: %x re-encodes %x", b, reenc)
		}
		// Both encodings reconstruct Equal() keys.
		b1, err1 := NewPublicKey(pub.Bytes())
		b2, err2 := NewPublicKey(pub.BytesCompressed())
		if err1 != nil || err2 != nil || !b1.Equal(pub) || !b2.Equal(pub) {
			t.Fatalf("cross-encoding reconstruction failed for %x", b)
		}
	})
}
