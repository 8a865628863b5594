package engine

import (
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/gf233"
)

// Zero-alloc guards: the allocation-free contract of the hot paths,
// pinned with testing.AllocsPerRun so a refactor that reintroduces
// per-op garbage fails CI rather than silently melting throughput.
// The guards skip under the race detector (its instrumentation
// allocates) — `make ci` runs them in a separate non-race pass.

func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// TestZeroAllocMul64 pins the 64-bit field multiplication at zero
// allocations.
func TestZeroAllocMul64(t *testing.T) {
	skipIfRace(t)
	rnd := rand.New(rand.NewSource(60))
	x := gf233.ToElem64(gf233.Rand(rnd.Uint32))
	y := gf233.ToElem64(gf233.Rand(rnd.Uint32))
	if avg := testing.AllocsPerRun(200, func() {
		x = gf233.Mul64(x, y)
	}); avg != 0 {
		t.Fatalf("Mul64 allocates %v/op, want 0", avg)
	}
}

// TestZeroAllocScalarMult pins the public random-point multiplication
// (pooled-scratch path) at zero allocations.
func TestZeroAllocScalarMult(t *testing.T) {
	skipIfRace(t)
	g := ec.Gen()
	k, _ := new(big.Int).SetString("5e2b1c4d3f6a798081929394a5b6c7d8e9fa0b1c2d3e4f506172839", 16)
	core.Warm()
	core.ScalarMult(k, g) // reach steady state
	if avg := testing.AllocsPerRun(100, func() {
		core.ScalarMult(k, g)
	}); avg != 0 {
		t.Fatalf("ScalarMult allocates %v/op, want 0", avg)
	}
	core.ScalarBaseMult(k)
	if avg := testing.AllocsPerRun(100, func() {
		core.ScalarBaseMult(k)
	}); avg != 0 {
		t.Fatalf("ScalarBaseMult allocates %v/op, want 0", avg)
	}
}

// TestZeroAllocBatchECDH pins steady-state batched ECDH — the slice
// kernel and the Engine round trip — at zero allocations per op, for a
// fast key (τ-adic kP) and a ConstTime key (the Montgomery ladder).
func TestZeroAllocBatchECDH(t *testing.T) {
	skipIfRace(t)
	priv, err := core.GenerateKey(rand.New(rand.NewSource(61)))
	if err != nil {
		t.Fatal(err)
	}
	hard := *priv
	hard.ConstTime = true
	g := ec.Gen()
	peers := make([]ec.Affine, 32)
	for i := range peers {
		peers[i] = ec.ScalarMultGeneric(big.NewInt(int64(2*i+1)), g)
	}
	e := New(Config{MaxBatch: 8, Workers: 1})
	defer e.Close()
	for _, k := range []*core.PrivateKey{priv, &hard} {
		out := make([]ECDHResult, len(peers))
		BatchSharedSecret(k, peers, out) // reach steady state
		if avg := testing.AllocsPerRun(20, func() {
			BatchSharedSecret(k, peers, out)
		}); avg != 0 {
			t.Fatalf("ConstTime %v: BatchSharedSecret allocates %v per batch, want 0", k.ConstTime, avg)
		}

		buf := make([]byte, 0, SecretSize)
		if _, err := e.SharedSecretAppend(buf, k, peers[0]); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(50, func() {
			if _, err := e.SharedSecretAppend(buf, k, peers[0]); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("ConstTime %v: engine SharedSecretAppend allocates %v/op, want 0", k.ConstTime, avg)
		}
	}
}

// TestZeroAllocBatchSign pins steady-state batched signing at zero
// allocations per op (result signatures recycled, as a server reusing
// response buffers would).
func TestZeroAllocBatchSign(t *testing.T) {
	skipIfRace(t)
	priv, err := core.GenerateKey(rand.New(rand.NewSource(62)))
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(63))
	digests := make([][]byte, 32)
	for i := range digests {
		d := sha256.Sum256([]byte{byte(i)})
		digests[i] = d[:]
	}
	out := make([]SignResult, len(digests))
	BatchSign(priv, digests, rnd, out) // allocate result R/S once
	if avg := testing.AllocsPerRun(20, func() {
		BatchSign(priv, digests, rnd, out)
	}); avg != 0 {
		t.Fatalf("BatchSign allocates %v per batch, want 0", avg)
	}

	e := New(Config{MaxBatch: 8, Workers: 1})
	defer e.Close()
	var sig Signature
	if err := e.SignInto(&sig, priv, digests[0], rnd); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if err := e.SignInto(&sig, priv, digests[0], rnd); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("engine SignInto allocates %v/op, want 0", avg)
	}
}
