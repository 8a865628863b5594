package codegen

import (
	"math/big"
	"testing"

	"repro/internal/armv6m"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/koblitz"
)

// ladderTestScalars spans the structural extremes: minimal and
// near-maximal Hamming weight, the range edges, and a dense mid-range
// value, all far apart in bit pattern so trace equality cannot be a
// coincidence of similar secrets.
func ladderTestScalars() []*big.Int {
	dense, _ := new(big.Int).SetString(
		"5555555555555555555555555555555555555555555555555555555555", 16)
	return []*big.Int{
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(ec.Order, big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), 231),
		dense,
	}
}

// TestCTLadderMatchesScalarMult pins the ladder's result to the
// reference scalar multiplication: the harness only means something
// if the constant-time subject computes the right point. It also holds
// the two substrates to one algorithm: the simulated M0+ ladder and
// the host's 64-bit ladder (core.LadderX, the hardened ECDH
// evaluation) give the same x, at the generator and at a non-generator
// subgroup point.
func TestCTLadderMatchesScalarMult(t *testing.T) {
	points := []ec.Affine{ec.Gen(), core.ScalarBaseMult(big.NewInt(0x1234567))}
	for _, p := range points {
		for _, k := range ladderTestScalars() {
			res, err := RunCTLadder(k, p, nil)
			if err != nil {
				t.Fatalf("k=%v: %v", k, err)
			}
			want := core.ScalarMult(k, p)
			if res.X != want.X {
				t.Fatalf("k=%v P=%v: ladder x = %v, want %v", k, p, res.X, want.X)
			}
			if host, ok := core.LadderX(k, p); !ok || host != res.X {
				t.Fatalf("k=%v P=%v: M0+ ladder x = %v, host ladder (%v, %v)", k, p, res.X, host, ok)
			}
		}
	}
}

// TestCTLadderTraceEquality is the core side-channel regression: every
// scalar must produce the SAME instruction-address stream, the SAME
// data-address stream (including read/write direction) and the same
// cycle count. Any secret-dependent branch or lookup introduced into
// the ladder, the cswap, the bit extraction or the field routines
// breaks this test.
func TestCTLadderTraceEquality(t *testing.T) {
	g := ec.Gen()
	var ref *TraceRecorder
	var refCycles uint64
	for i, k := range ladderTestScalars() {
		rec := NewTraceRecorder()
		res, err := RunCTLadder(k, g, rec)
		if err != nil {
			t.Fatalf("k=%v: %v", k, err)
		}
		if rec.Instrs == 0 || rec.Accesses == 0 {
			t.Fatal("trace hooks recorded nothing (harness broken)")
		}
		if i == 0 {
			ref, refCycles = rec, res.Cycles
			continue
		}
		if !rec.Equal(ref) {
			t.Errorf("k=%v: trace diverges from reference: instr (%d, %#x) vs (%d, %#x), data (%d, %#x) vs (%d, %#x)",
				k, rec.Instrs, rec.InstrHash, ref.Instrs, ref.InstrHash,
				rec.Accesses, rec.DataHash, ref.Accesses, ref.DataHash)
		}
		if res.Cycles != refCycles {
			t.Errorf("k=%v: cycle count %d differs from reference %d", k, res.Cycles, refCycles)
		}
	}
}

// TestPointMulTracesDiffer validates the detector itself: the
// variable-time τ-and-add driver branches on recoded digits and
// indexes its table with them, so two different secrets MUST produce
// diverging traces. If this test fails, the recorder is blind and the
// equality test above proves nothing.
func TestPointMulTracesDiffer(t *testing.T) {
	g := ec.Gen()
	traced := func(k *big.Int) *TraceRecorder {
		digits := koblitz.WTNAF(koblitz.PartMod(k), core.WRandom)
		table := core.AlphaPoints(g, core.WRandom)
		rec := NewTraceRecorder()
		_, err := runPointMulDigits(digits, table, core.WRandom,
			func(m *armv6m.Machine) { rec.Attach(m) })
		if err != nil {
			t.Fatalf("k=%v: %v", k, err)
		}
		return rec
	}
	k1 := big.NewInt(0xDEADBEEF)
	k2 := new(big.Int).Lsh(big.NewInt(0x1337), 100)
	if traced(k1).Equal(traced(k2)) {
		t.Fatal("variable-time point multiplication produced identical traces for different secrets — the detector is blind")
	}
}
