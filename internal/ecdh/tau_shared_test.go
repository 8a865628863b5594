package ecdh

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/gf233"
)

// TestTauVariantsMatchGeneric holds the fast-validated shared-secret
// path to the generic validator on every rejection class: the identity
// and an off-subgroup point (the cofactor-4 curve has a point of order
// 2 — x = 0) are rejected by Validate, and SharedSecret and SharedKey
// reject them too, for fast and hardened keys alike.
func TestTauVariantsMatchGeneric(t *testing.T) {
	rnd := rand.New(rand.NewSource(61))
	priv, err := core.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	hard := *priv
	hard.ConstTime = true
	bad := []ec.Affine{ec.Infinity, {X: gf233.Zero, Y: gf233.One}}
	for i, p := range bad {
		if Validate(p) == nil {
			t.Fatalf("bad peer %d: the generic validator accepts it", i)
		}
		for _, k := range []*core.PrivateKey{priv, &hard} {
			if _, err := SharedSecret(k, p); err == nil {
				t.Fatalf("bad peer %d accepted by SharedSecret (ConstTime %v)", i, k.ConstTime)
			}
			if _, err := SharedKey(k, p, 32); err == nil {
				t.Fatalf("bad peer %d accepted by SharedKey (ConstTime %v)", i, k.ConstTime)
			}
		}
	}
}
