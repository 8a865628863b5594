package ecdh

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf233"
)

// Property tests: shared-secret symmetry must hold under all three
// field backends (and the backends must produce byte-identical
// secrets), and Validate must reject every class of bad public key the
// cofactor-4 curve admits.

func TestSharedSecretSymmetryAcrossBackends(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	defer gf233.SetBackend(gf233.CurrentBackend())
	var secrets [2][]byte
	for i, b := range []gf233.Backend{gf233.Backend64, gf233.BackendCLMUL} {
		gf233.SetBackend(b)
		rnd.Seed(11) // identical keys under both backends
		alice, err := GenerateKey(rnd)
		if err != nil {
			t.Fatal(err)
		}
		bob, err := GenerateKey(rnd)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := SharedSecret(alice, bob.Public)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := SharedSecret(bob, alice.Public)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, ba) {
			t.Fatalf("backend %s: a·Q_b != b·Q_a: %x vs %x", b, ab, ba)
		}
		secrets[i] = ab
	}
	for i := 1; i < len(secrets); i++ {
		if !bytes.Equal(secrets[0], secrets[i]) {
			t.Fatalf("backends disagree on the shared secret: %x vs %x",
				secrets[0], secrets[i])
		}
	}
}

func TestSharedKeySymmetry(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	alice, err := GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	ka, err := SharedKey(alice, bob.Public, 32)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := SharedKey(bob, alice.Public, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ka, kb) {
		t.Fatalf("derived keys differ: %x vs %x", ka, kb)
	}
}

// orderTwoPoint returns (0, 1), the curve's point of order 2:
// 0 = x means y² = b = 1, and doubling any x = 0 point gives ∞.
func orderTwoPoint() ec.Affine {
	return ec.Affine{X: gf233.Zero, Y: gf233.One}
}

func TestValidateRejections(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	key, err := GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(key.Public); err != nil {
		t.Fatalf("honest public key rejected: %v", err)
	}

	// Identity.
	if Validate(ec.Infinity) == nil {
		t.Fatal("identity accepted")
	}

	// Off-curve: perturb one coordinate of a valid point.
	off := key.Public
	off.Y = gf233.Add(off.Y, gf233.One)
	if off.OnCurve() {
		t.Fatal("perturbed point unexpectedly on curve")
	}
	if Validate(off) == nil {
		t.Fatal("off-curve point accepted")
	}

	// Small-subgroup: the order-2 point itself...
	two := orderTwoPoint()
	if !two.OnCurve() || !two.Double().Inf {
		t.Fatal("order-2 point construction broken")
	}
	if Validate(two) == nil {
		t.Fatal("order-2 point accepted")
	}
	// ...and a confined point G + (0,1) of order 2n, which is on the
	// curve but outside the prime-order subgroup.
	confined := ec.Gen().Add(two)
	if !confined.OnCurve() {
		t.Fatal("confined point construction broken")
	}
	if Validate(confined) == nil {
		t.Fatal("small-subgroup confined point accepted")
	}
	// SharedSecret must refuse it before doing secret-dependent work.
	if _, err := SharedSecret(key, confined); err == nil {
		t.Fatal("SharedSecret accepted a confined point")
	}
}
