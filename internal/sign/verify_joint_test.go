package sign

import (
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/gf233"
)

// The joint-ladder verifier must be decision-identical to the seed's
// disjoint evaluation — on accepts AND on rejects. These tests drive
// all three verifier entry points (Verify, VerifyPrecomputed,
// VerifySeparate) through the same adversarial inputs and demand
// identical verdicts, on both field backends.

// verifiers returns the three entry points under a shared label, with
// a per-key precomputed table for the middle one.
func verifiers(fb *core.FixedBase) []struct {
	name string
	f    func(pub ec.Affine, digest []byte, sig *Signature) bool
} {
	return []struct {
		name string
		f    func(pub ec.Affine, digest []byte, sig *Signature) bool
	}{
		{"joint", Verify},
		{"jointPrecomp", func(pub ec.Affine, digest []byte, sig *Signature) bool {
			return VerifyPrecomputed(pub, fb, digest, sig)
		}},
		{"separate", VerifySeparate},
	}
}

// TestVerifyJointMatchesSeparate flips every byte of the digest and
// every low byte of r, s and the public point in turn: each corruption
// must be rejected by all three verifiers, and the untouched inputs
// accepted by all three — before/after behaviour is identical by
// construction.
func TestVerifyJointMatchesSeparate(t *testing.T) {
	rnd := rand.New(rand.NewSource(70))
	key, err := core.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	wrongKey, err := core.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("joint verify contract"))
	sig, err := Sign(key, digest[:], rnd)
	if err != nil {
		t.Fatal(err)
	}
	fb := core.NewFixedBase(key.Public, core.WPrecomp)

	for _, bk := range []gf233.Backend{gf233.Backend64, gf233.BackendCLMUL} {
		prev := gf233.SetBackend(bk)
		for _, v := range verifiers(fb) {
			if !v.f(key.Public, digest[:], sig) {
				t.Fatalf("%v/%s: valid signature rejected", bk, v.name)
			}
			// Bit-flipped digest bytes.
			for i := 0; i < len(digest); i += 7 {
				bad := digest
				bad[i] ^= 0x40
				if v.f(key.Public, bad[:], sig) {
					t.Fatalf("%v/%s: digest flip at byte %d accepted", bk, v.name, i)
				}
			}
			// Bit-flipped r and s.
			badR := &Signature{R: new(big.Int).Xor(sig.R, big.NewInt(1)), S: sig.S}
			if v.f(key.Public, digest[:], badR) {
				t.Fatalf("%v/%s: flipped r accepted", bk, v.name)
			}
			badS := &Signature{R: sig.R, S: new(big.Int).Xor(sig.S, big.NewInt(2))}
			if v.f(key.Public, digest[:], badS) {
				t.Fatalf("%v/%s: flipped s accepted", bk, v.name)
			}
			// Wrong public key (the precomputed path gets the wrong
			// point with the right table — still a reject, since u1, u2
			// are bound to r, s and the digest).
			if v.name != "jointPrecomp" && v.f(wrongKey.Public, digest[:], sig) {
				t.Fatalf("%v/%s: wrong key accepted", bk, v.name)
			}
		}
		gf233.SetBackend(prev)
	}
}

// TestVerifyJointRandomisedAgreement cross-checks accept/reject
// verdicts of joint vs separate over randomised (digest, signature)
// mixes, including corrupted copies — whatever the verdict, the two
// decision procedures must agree.
func TestVerifyJointRandomisedAgreement(t *testing.T) {
	rnd := rand.New(rand.NewSource(71))
	key, err := core.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	fb := core.NewFixedBase(key.Public, core.WPrecomp)
	for i := 0; i < 24; i++ {
		var digest [32]byte
		rnd.Read(digest[:])
		sig, err := Sign(key, digest[:], rnd)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 1 {
			sig.R = new(big.Int).Xor(sig.R, big.NewInt(int64(1+rnd.Intn(255))))
		}
		if i%3 == 2 {
			rnd.Read(digest[:])
		}
		want := VerifySeparate(key.Public, digest[:], sig)
		if got := Verify(key.Public, digest[:], sig); got != want {
			t.Fatalf("iteration %d: joint=%v separate=%v", i, got, want)
		}
		if got := VerifyPrecomputed(key.Public, fb, digest[:], sig); got != want {
			t.Fatalf("iteration %d: jointPrecomp=%v separate=%v", i, got, want)
		}
	}
}

// TestVerifyPrecomputedNilTable pins the documented nil-table
// fallback.
func TestVerifyPrecomputedNilTable(t *testing.T) {
	rnd := rand.New(rand.NewSource(72))
	key, err := core.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("nil table"))
	sig, err := Sign(key, digest[:], rnd)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyPrecomputed(key.Public, nil, digest[:], sig) {
		t.Fatal("nil-table VerifyPrecomputed rejected a valid signature")
	}
}
