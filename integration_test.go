package repro

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/codegen"
	"repro/internal/energy"
	"repro/internal/gf2"
	"repro/internal/gf233"
	"repro/internal/profile"
)

// TestModulusIrreducible proves the field is well-formed: the sect233k1
// trinomial x^233 + x^74 + 1 is irreducible over F2 (Rabin's test — 233
// is prime, so it suffices that x^(2^233) ≡ x (mod f) and
// gcd(x^2 − x mod f, f) = 1).
func TestModulusIrreducible(t *testing.T) {
	f := gf233.Modulus()
	x := gf2.X(1)
	// x^(2^233) mod f via 233 modular squarings.
	v := x
	for i := 0; i < gf233.M; i++ {
		v = gf2.Mod(gf2.Sqr(v), f)
	}
	if !gf2.Equal(v, x) {
		t.Fatal("x^(2^233) != x (mod f): modulus not irreducible")
	}
	// gcd(x^2 + x, f) must be 1 (characteristic 2: − is +).
	g := gf2.GCD(gf2.Add(gf2.Sqr(x), x), f)
	if g.Degree() != 0 {
		t.Fatalf("gcd(x^2 - x, f) has degree %d", g.Degree())
	}
}

// TestSerializationRoundTrip covers the private-key marshal/parse path.
func TestSerializationRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	key, err := GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	blob := key.Bytes()
	if len(blob) != PrivateKeySize {
		t.Fatalf("blob length %d", len(blob))
	}
	back, err := NewPrivateKey(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(key) || !back.PublicKey().Equal(key.PublicKey()) {
		t.Fatal("round trip changed the key")
	}
	// Invalid encodings.
	if _, err := NewPrivateKey(nil); err == nil {
		t.Error("nil blob accepted")
	}
	if _, err := NewPrivateKey(make([]byte, PrivateKeySize)); err == nil {
		t.Error("zero scalar accepted")
	}
	big := Order().FillBytes(make([]byte, PrivateKeySize))
	if _, err := NewPrivateKey(big); err == nil {
		t.Error("scalar >= n accepted")
	}
}

// TestPipelineConsistency ties the evaluation layers together: the
// profile's Table 4 energies must equal (cycles / f) × power with the
// energy package's constants, and the simulated routines feeding the
// profile must agree with the Go field arithmetic.
func TestPipelineConsistency(t *testing.T) {
	costs, err := profile.MeasureOpCosts()
	if err != nil {
		t.Fatal(err)
	}
	k, _ := new(big.Int).SetString("123456789abcdef", 16)
	bd := profile.ThisWorkKP(costs, k)
	wantE := bd.PowerMicroW * 1e-6 * float64(bd.Cycles) / energy.ClockHz * 1e6
	if diff := bd.EnergyMicroJ - wantE; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("energy %v µJ inconsistent with power×time %v µJ", bd.EnergyMicroJ, wantE)
	}
	// The simulated multiplication agrees with Go arithmetic end to end
	// (spot check through the same build the profile used).
	routines, err := codegen.Build()
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 5; i++ {
		a, b := gf233.Rand(rnd.Uint32), gf233.Rand(rnd.Uint32)
		got, st, err := routines.MulFixedASM.RunMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != gf233.Mul(a, b) {
			t.Fatal("simulated and native multiplication disagree")
		}
		if st.Cycles != costs.MulCycles {
			t.Fatalf("cycle count drifted: %d vs %d", st.Cycles, costs.MulCycles)
		}
	}
}
