package repro

// One benchmark per table and figure of the paper's evaluation section,
// plus the ablations called out in DESIGN.md. Cycle and energy figures
// from the simulated Cortex-M0+ are attached as custom benchmark
// metrics (cycles/op, pJ/op, µJ/op) next to the host-side ns/op, so
// `go test -bench .` regenerates the paper's numbers alongside Go-level
// performance.

import (
	"crypto/sha256"
	"math/big"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/ecdh"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/gf233"
	"repro/internal/model"
	"repro/internal/opcount"
	"repro/internal/profile"
	"repro/internal/sign"
)

var (
	benchOnce     sync.Once
	benchRoutines *codegen.Routines
	benchCosts    *profile.OpCosts
)

func benchSetup(b *testing.B) (*codegen.Routines, *profile.OpCosts) {
	b.Helper()
	benchOnce.Do(func() {
		r, err := codegen.Build()
		if err != nil {
			panic(err)
		}
		benchRoutines = r
		c, err := profile.MeasureOpCosts()
		if err != nil {
			panic(err)
		}
		benchCosts = c
	})
	return benchRoutines, benchCosts
}

func benchScalar() *big.Int {
	k, _ := new(big.Int).SetString(
		"5e2b1c4d3f6a798081929394a5b6c7d8e9fa0b1c2d3e4f506172839", 16)
	return k
}

// BenchmarkTable1OpFormulas measures the instrumented word-level
// engines behind Table 1 and attaches their operation totals.
func BenchmarkTable1OpFormulas(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	x, y := gf233.Rand(rnd.Uint32), gf233.Rand(rnd.Uint32)
	for _, m := range opcount.Methods() {
		b.Run(m.String(), func(b *testing.B) {
			var counts opcount.Counts
			for i := 0; i < b.N; i++ {
				_, counts = opcount.Measure(m, x, y)
			}
			b.ReportMetric(float64(counts.Read), "reads/op")
			b.ReportMetric(float64(counts.Write), "writes/op")
			b.ReportMetric(float64(counts.XOR), "xors/op")
			b.ReportMetric(float64(counts.Shift), "shifts/op")
		})
	}
}

// BenchmarkTable2CycleEstimates reports the paper's closed-form cycle
// estimates (mem = 2 cycles) for the three methods.
func BenchmarkTable2CycleEstimates(b *testing.B) {
	for _, m := range opcount.Methods() {
		b.Run(m.String(), func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				cycles = opcount.Formula(m, 8).Cycles()
			}
			b.ReportMetric(float64(cycles), "modelcycles/op")
		})
	}
}

// BenchmarkTable3InstructionEnergy re-measures one Table 3 row per
// sub-benchmark on the synthetic rig.
func BenchmarkTable3InstructionEnergy(b *testing.B) {
	for _, cls := range energy.Table3Instructions() {
		b.Run(cls.String(), func(b *testing.B) {
			rig := energy.NewRig(4*energy.ClockHz, 50e-6, 7)
			var row energy.InstructionMeasurement
			var err error
			for i := 0; i < b.N; i++ {
				row, err = rig.MeasureInstruction(cls)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.MeasuredPJ, "pJ/cycle")
		})
	}
}

// BenchmarkTable4PointMult runs the real Go point multiplications (host
// time) and attaches the simulated-M0+ cycle and energy figures of the
// Table 4 "This work" and RELIC rows.
func BenchmarkTable4PointMult(b *testing.B) {
	_, costs := benchSetup(b)
	k := benchScalar()
	g := ec.Gen()
	kpMeas, err := profile.MeasuredKP(costs, k)
	if err != nil {
		b.Fatal(err)
	}
	kgMeas, err := profile.MeasuredKG(costs, k)
	if err != nil {
		b.Fatal(err)
	}
	rows := []struct {
		name  string
		model profile.Breakdown
		run   func()
	}{
		{"ThisWork_kP", kpMeas, func() { core.ScalarMult(k, g) }},
		{"ThisWork_kG", kgMeas, func() { core.ScalarBaseMult(k) }},
		{"Relic_kP", profile.RelicKP(costs, k), func() { core.ScalarMultW(k, g, 4) }},
		{"Relic_kG", profile.RelicKG(costs, k), func() { core.ScalarMultW(k, g, 4) }},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row.run()
			}
			b.ReportMetric(float64(row.model.Cycles), "m0cycles/op")
			b.ReportMetric(row.model.TimeMS, "m0ms/op")
			b.ReportMetric(row.model.EnergyMicroJ, "µJ/op")
		})
	}
}

// BenchmarkTable5FieldOps measures the "This work" field-arithmetic row
// (sqr 395 / mul 3672 in the paper) on the simulator.
func BenchmarkTable5FieldOps(b *testing.B) {
	routines, _ := benchSetup(b)
	rnd := rand.New(rand.NewSource(2))
	x, y := gf233.Rand(rnd.Uint32), gf233.Rand(rnd.Uint32)
	b.Run("Mul", func(b *testing.B) {
		var st codegen.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = routines.MulFixedASM.RunMul(x, y)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.Cycles), "m0cycles/op")
	})
	b.Run("Sqr", func(b *testing.B) {
		var st codegen.Stats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = routines.SqrASM.RunSqr(x)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.Cycles), "m0cycles/op")
	})
}

// BenchmarkTable6FieldRoutines covers every Table 6 variant: C vs
// assembly for multiplication and squaring, plus the modelled EEA
// inversion.
func BenchmarkTable6FieldRoutines(b *testing.B) {
	routines, costs := benchSetup(b)
	rnd := rand.New(rand.NewSource(3))
	x, y := gf233.Rand(rnd.Uint32), gf233.Rand(rnd.Uint32)
	muls := []struct {
		name string
		r    *codegen.Routine
	}{
		{"MulRotating_C", routines.MulRotC},
		{"MulFixed_C", routines.MulFixedC},
		{"MulFixed_ASM", routines.MulFixedASM},
	}
	for _, m := range muls {
		b.Run(m.name, func(b *testing.B) {
			var st codegen.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = m.r.RunMul(x, y)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Cycles), "m0cycles/op")
		})
	}
	for _, s := range []struct {
		name string
		r    *codegen.Routine
	}{{"Sqr_C", routines.SqrC}, {"Sqr_ASM", routines.SqrASM}} {
		b.Run(s.name, func(b *testing.B) {
			var st codegen.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = s.r.RunSqr(x)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Cycles), "m0cycles/op")
		})
	}
	b.Run("Inversion_C_model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			profile.InvCycleModel()
		}
		b.ReportMetric(float64(costs.InvCycles), "m0cycles/op")
	})
	b.Run("Inversion_Go", func(b *testing.B) {
		v := x
		for i := 0; i < b.N; i++ {
			v = gf233.MustInv(v)
		}
	})
}

// BenchmarkTable7PhaseBreakdown reports the per-phase totals of the
// paper's Table 7 for kP and kG.
func BenchmarkTable7PhaseBreakdown(b *testing.B) {
	_, costs := benchSetup(b)
	k := benchScalar()
	for _, cfg := range []struct {
		name string
		f    func() profile.Breakdown
	}{
		{"kP", func() profile.Breakdown { return profile.ThisWorkKP(costs, k) }},
		{"kG", func() profile.Breakdown { return profile.ThisWorkKG(costs, k) }},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var bd profile.Breakdown
			for i := 0; i < b.N; i++ {
				bd = cfg.f()
			}
			b.ReportMetric(float64(bd.Multiply), "mulcycles/op")
			b.ReportMetric(float64(bd.Square), "sqrcycles/op")
			b.ReportMetric(float64(bd.Cycles), "totalcycles/op")
		})
	}
}

// BenchmarkFig1Trace regenerates the Figure 1 layout rendering.
func BenchmarkFig1Trace(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = opcount.Fig1()
	}
	b.ReportMetric(float64(len(s)), "bytes/op")
}

// BenchmarkCurveSelection runs the §3.1 binary-vs-prime model.
func BenchmarkCurveSelection(b *testing.B) {
	var c model.Conclusions
	for i := 0; i < b.N; i++ {
		c = model.Run()
	}
	b.ReportMetric(float64(c.Binary.PointCycles), "binarycycles/op")
	b.ReportMetric(float64(c.Prime224.PointCycles), "primecycles/op")
}

// BenchmarkWindowWidth is the w ∈ {2..8} recoding-width ablation on the
// real Go implementation.
func BenchmarkWindowWidth(b *testing.B) {
	k := benchScalar()
	g := ec.Gen()
	for w := 2; w <= 8; w++ {
		b.Run(string(rune('0'+w)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ScalarMultW(k, g, w)
			}
		})
	}
}

// BenchmarkMontgomeryLadder contrasts the §5 constant-time ladder with
// the wTNAF path.
func BenchmarkMontgomeryLadder(b *testing.B) {
	k := benchScalar()
	g := ec.Gen()
	b.Run("Ladder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ScalarMultLadder(k, g)
		}
	})
	b.Run("WTNAF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ScalarMult(k, g)
		}
	})
}

// BenchmarkInversionMethods is the EEA vs Itoh-Tsujii ablation.
func BenchmarkInversionMethods(b *testing.B) {
	rnd := rand.New(rand.NewSource(4))
	x := gf233.Rand(rnd.Uint32)
	b.Run("EEA", func(b *testing.B) {
		v := x
		for i := 0; i < b.N; i++ {
			v = gf233.MustInv(v)
		}
	})
	b.Run("ItohTsujii", func(b *testing.B) {
		v := x
		for i := 0; i < b.N; i++ {
			v, _ = gf233.InvItohTsujii(v)
		}
	})
}

// BenchmarkReductionInterleaving is the separate-vs-interleaved
// squaring-reduction ablation.
func BenchmarkReductionInterleaving(b *testing.B) {
	rnd := rand.New(rand.NewSource(5))
	x := gf233.Rand(rnd.Uint32)
	b.Run("Separate", func(b *testing.B) {
		v := x
		for i := 0; i < b.N; i++ {
			v = gf233.SqrSeparate(v)
		}
	})
	b.Run("Interleaved", func(b *testing.B) {
		v := x
		for i := 0; i < b.N; i++ {
			v = gf233.SqrInterleaved(v)
		}
	})
}

// BenchmarkSimulatorThroughput measures raw ISS speed (host-side) for
// context on the substrate itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	routines, _ := benchSetup(b)
	rnd := rand.New(rand.NewSource(6))
	x, y := gf233.Rand(rnd.Uint32), gf233.Rand(rnd.Uint32)
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		_, st, err := routines.MulFixedASM.RunMul(x, y)
		if err != nil {
			b.Fatal(err)
		}
		cycles += st.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/op")
}

// withBackend runs the sub-benchmark with the given field backend
// selected, restoring the previous selection afterwards.
func withBackend(b *testing.B, bk gf233.Backend, f func(b *testing.B)) {
	b.Helper()
	prev := gf233.SetBackend(bk)
	defer gf233.SetBackend(prev)
	f(b)
}

// skipUnlessCLMUL skips CLMUL-tagged sub-benchmarks on hardware
// without carry-less multiply (where the wrappers degrade to the
// pure-Go path and the row would mislabel what it measures).
func skipUnlessCLMUL(b *testing.B) {
	b.Helper()
	if !gf233.HasCLMUL() {
		b.Skip("no PCLMULQDQ on this machine")
	}
}

// BenchmarkMul contrasts host-side field multiplication: the
// paper-faithful 8x32-bit LD with fixed registers, the 4x64-bit
// windowed LD (plus its Karatsuba-split ablation), and the PCLMULQDQ
// carry-less multiply.
func BenchmarkMul(b *testing.B) {
	rnd := rand.New(rand.NewSource(10))
	x, y := gf233.Rand(rnd.Uint32), gf233.Rand(rnd.Uint32)
	b.Run("32", func(b *testing.B) {
		v := x
		for i := 0; i < b.N; i++ {
			v = gf233.MulLDFixed(v, y)
		}
	})
	b.Run("64", func(b *testing.B) {
		v, w := gf233.ToElem64(x), gf233.ToElem64(y)
		for i := 0; i < b.N; i++ {
			v = gf233.MulLD64(v, w)
		}
	})
	b.Run("64kar", func(b *testing.B) {
		v, w := gf233.ToElem64(x), gf233.ToElem64(y)
		for i := 0; i < b.N; i++ {
			v = gf233.MulKaratsuba64(v, w)
		}
	})
	b.Run("clmul", func(b *testing.B) {
		skipUnlessCLMUL(b)
		v, w := gf233.ToElem64(x), gf233.ToElem64(y)
		for i := 0; i < b.N; i++ {
			v = gf233.MulClmul(v, w)
		}
	})
}

// BenchmarkSqr contrasts host-side squaring across the backends.
func BenchmarkSqr(b *testing.B) {
	rnd := rand.New(rand.NewSource(11))
	x := gf233.Rand(rnd.Uint32)
	b.Run("32", func(b *testing.B) {
		v := x
		for i := 0; i < b.N; i++ {
			v = gf233.SqrInterleaved(v)
		}
	})
	b.Run("64", func(b *testing.B) {
		v := gf233.ToElem64(x)
		for i := 0; i < b.N; i++ {
			v = gf233.SqrSpread64(v)
		}
	})
	b.Run("clmul", func(b *testing.B) {
		skipUnlessCLMUL(b)
		v := gf233.ToElem64(x)
		for i := 0; i < b.N; i++ {
			v = gf233.SqrClmul(v)
		}
	})
}

// BenchmarkInv contrasts host-side inversion across the backends: EEA
// on the 32-bit and 64-bit representations, and the Itoh–Tsujii chain
// over CLMUL squaring (the BackendCLMUL hot path).
func BenchmarkInv(b *testing.B) {
	rnd := rand.New(rand.NewSource(12))
	x := gf233.Rand(rnd.Uint32)
	b.Run("32", func(b *testing.B) {
		v := x
		for i := 0; i < b.N; i++ {
			v, _ = gf233.InvEEA(v)
		}
	})
	b.Run("64", func(b *testing.B) {
		v := gf233.ToElem64(x)
		for i := 0; i < b.N; i++ {
			v, _ = gf233.Inv64(v)
		}
	})
	b.Run("clmul", func(b *testing.B) {
		skipUnlessCLMUL(b)
		v := gf233.ToElem64(x)
		for i := 0; i < b.N; i++ {
			v, _ = gf233.InvItohTsujii64(v)
		}
	})
}

// BenchmarkScalarMult runs the paper's random-point multiplication with
// the field arithmetic pinned to each backend, making the CLMUL speedup
// over the portable 64-bit path visible at the protocol level.
func BenchmarkScalarMult(b *testing.B) {
	k := benchScalar()
	g := ec.Gen()
	for _, bk := range []gf233.Backend{gf233.Backend64, gf233.BackendCLMUL} {
		b.Run(bk.String(), func(b *testing.B) {
			if bk == gf233.BackendCLMUL {
				skipUnlessCLMUL(b)
			}
			withBackend(b, bk, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.ScalarMult(k, g)
				}
			})
		})
	}
}

// BenchmarkScalarBaseMult contrasts the two fixed-point methods: the
// paper's wTNAF w=6 with precomputed α_u·G table and the host-side
// Lim-Lee comb.
func BenchmarkScalarBaseMult(b *testing.B) {
	k := benchScalar()
	b.Run("tnaf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ScalarBaseMultTNAF(k)
		}
	})
	b.Run("comb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ScalarBaseMult(k)
		}
	})
}

// BenchmarkGenerateKey measures full key generation with the public key
// computed by the constant-time ladder (the slow, assumption-free path)
// versus the comb-backed fixed-base path used by core.GenerateKey.
func BenchmarkGenerateKey(b *testing.B) {
	b.Run("ladder", func(b *testing.B) {
		rnd := rand.New(rand.NewSource(13))
		g := ec.Gen()
		for i := 0; i < b.N; i++ {
			d := new(big.Int).Rand(rnd, ec.Order)
			if d.Sign() == 0 {
				d.SetInt64(1)
			}
			core.ScalarMultLadder(d, g)
		}
	})
	b.Run("comb", func(b *testing.B) {
		rnd := rand.New(rand.NewSource(13))
		for i := 0; i < b.N; i++ {
			if _, err := core.GenerateKey(rnd); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPointMulOnSimulator executes the complete kP τ-and-add main
// loop on the simulated M0+ per iteration — the end-to-end measurement
// behind the Table 6 kP row.
func BenchmarkPointMulOnSimulator(b *testing.B) {
	k := benchScalar()
	g := ec.Gen()
	var loop uint64
	for i := 0; i < b.N; i++ {
		res, err := codegen.RunPointMulKP(k, g)
		if err != nil {
			b.Fatal(err)
		}
		loop = res.LoopCycles
	}
	b.ReportMetric(float64(loop), "m0loopcycles/op")
}

// BenchmarkValidate contrasts the two peer validators: the generic
// double-and-add n·Q check (one inversion, ~233 LD doublings) and the
// halving-trace subgroup test every other path uses (two traces and
// one table half-trace, no inversion). The "tau" name is kept from the
// τ-adic n·Q evaluation that test replaced.
func BenchmarkValidate(b *testing.B) {
	peer := ec.ScalarMultGeneric(benchScalar(), ec.Gen())
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ecdh.Validate(peer); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tau", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ecdh.ValidateTau(peer); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchBatchInputs builds a deterministic server key and peer pool.
func benchBatchInputs(b *testing.B, n int) (*core.PrivateKey, []ec.Affine) {
	b.Helper()
	rnd := rand.New(rand.NewSource(70))
	priv, err := core.GenerateKey(rnd)
	if err != nil {
		b.Fatal(err)
	}
	peers := make([]ec.Affine, n)
	for i := range peers {
		pk, err := core.GenerateKey(rnd)
		if err != nil {
			b.Fatal(err)
		}
		peers[i] = pk.Public
	}
	return priv, peers
}

// BenchmarkECDH contrasts one-shot shared-secret derivation with the
// batch kernel at batch sizes 8 and 32 (ns/op is per derivation in
// every sub-benchmark).
func BenchmarkECDH(b *testing.B) {
	priv, peers := benchBatchInputs(b, 32)
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ecdh.SharedSecret(priv, peers[i%len(peers)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{8, 32} {
		b.Run("batch"+strconv.Itoa(n), func(b *testing.B) {
			out := make([]engine.ECDHResult, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += n {
				engine.BatchSharedSecret(priv, peers[:n], out)
			}
			b.StopTimer()
			for i := range out {
				if out[i].Err != nil {
					b.Fatal(out[i].Err)
				}
			}
		})
	}
}

// BenchmarkSign contrasts one-shot signing with the batch kernel
// (ns/op is per signature in every sub-benchmark).
func BenchmarkSign(b *testing.B) {
	priv, _ := benchBatchInputs(b, 0)
	rnd := rand.New(rand.NewSource(71))
	digests := make([][]byte, 32)
	for i := range digests {
		d := sha256.Sum256([]byte{byte(i)})
		digests[i] = d[:]
	}
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sign.Sign(priv, digests[i%len(digests)], rnd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch32", func(b *testing.B) {
		out := make([]engine.SignResult, len(digests))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(digests) {
			engine.BatchSign(priv, digests, rnd, out)
		}
		b.StopTimer()
		for i := range out {
			if out[i].Err != nil {
				b.Fatal(out[i].Err)
			}
		}
	})
	// The hardened (constant-time) arm of the same key, one-shot and
	// batched: the overhead against the fast sub-benchmarks above is
	// the cost of hardening, gated at <= 3x by scripts/bench_sign.sh.
	hard := *priv
	hard.ConstTime = true
	b.Run("hardened", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sign.Sign(&hard, digests[i%len(digests)], rnd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hardenedBatch32", func(b *testing.B) {
		out := make([]engine.SignResult, len(digests))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(digests) {
			engine.BatchSign(&hard, digests, rnd, out)
		}
		b.StopTimer()
		for i := range out {
			if out[i].Err != nil {
				b.Fatal(out[i].Err)
			}
		}
	})
}

// benchVerifyInputs builds a server key with a precomputed
// verification table, plus digests and signatures to verify.
func benchVerifyInputs(b *testing.B, n int) (*core.PrivateKey, *core.FixedBase, [][]byte, []*sign.Signature) {
	b.Helper()
	rnd := rand.New(rand.NewSource(73))
	priv, err := core.GenerateKey(rnd)
	if err != nil {
		b.Fatal(err)
	}
	fb := core.NewFixedBase(priv.Public, core.WPrecomp)
	digests := make([][]byte, n)
	sigs := make([]*sign.Signature, n)
	for i := range digests {
		d := sha256.Sum256([]byte{byte(i), 0x56})
		digests[i] = d[:]
		sig, err := sign.Sign(priv, digests[i], rnd)
		if err != nil {
			b.Fatal(err)
		}
		sigs[i] = sig
	}
	return priv, fb, digests, sigs
}

// BenchmarkVerify contrasts the verification algorithms:
//
//   - separate: the seed path, two disjoint scalar multiplications
//     joined by an affine addition, four field inversions and a
//     per-call big.Int.ModInverse (sign.VerifySeparate, kept verbatim);
//   - jointCold: the interleaved double-scalar ladder with a per-call
//     Q table — what point-level sign.Verify runs for a key seen once;
//   - joint: the same ladder over the key's precomputed wide-window
//     table (PublicKey.Precompute) — the server steady state for a key
//     that verifies many signatures, and the headline number.
//
// All joint variants perform 0 allocs/op in steady state.
func BenchmarkVerify(b *testing.B) {
	priv, fb, digests, sigs := benchVerifyInputs(b, 8)
	core.Warm()
	b.Run("separate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !sign.VerifySeparate(priv.Public, digests[i%len(sigs)], sigs[i%len(sigs)]) {
				b.Fatal("verify failed")
			}
		}
	})
	b.Run("jointCold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !sign.Verify(priv.Public, digests[i%len(sigs)], sigs[i%len(sigs)]) {
				b.Fatal("verify failed")
			}
		}
	})
	b.Run("joint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !sign.VerifyPrecomputed(priv.Public, fb, digests[i%len(sigs)], sigs[i%len(sigs)]) {
				b.Fatal("verify failed")
			}
		}
	})
}

// BenchmarkBatchVerify measures the batched verification kernel at
// several batch sizes (ns/op is per verification): one Montgomery-trick
// mod-n inversion for all s⁻¹ and one batched field inversion for all
// LD→affine conversions per batch. The numbered sub-benchmarks run the
// server steady state (per-key precomputed tables, matching
// BenchmarkVerify/joint); cold32 shows batch=32 through the point-level
// BatchVerify with per-call tables.
func BenchmarkBatchVerify(b *testing.B) {
	priv, fb, digests, sigs := benchVerifyInputs(b, 128)
	core.Warm()
	pubs := make([]ec.Affine, len(sigs))
	fbs := make([]*core.FixedBase, len(sigs))
	for i := range pubs {
		pubs[i] = priv.Public
		fbs[i] = fb
	}
	ok := make([]bool, len(sigs))
	checkAll := func(b *testing.B, ok []bool) {
		b.Helper()
		for i := range ok {
			if !ok[i] {
				b.Fatalf("batch rejected valid signature %d", i)
			}
		}
	}
	for _, n := range []int{1, 8, 32, 128} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += n {
				engine.BatchVerifyTables(pubs[:n], fbs[:n], digests[:n], sigs[:n], ok[:n])
			}
			b.StopTimer()
			checkAll(b, ok[:n])
		})
	}
	b.Run("cold32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += 32 {
			engine.BatchVerify(pubs[:32], digests[:32], sigs[:32], ok[:32])
		}
		b.StopTimer()
		checkAll(b, ok[:32])
	})
}

// BenchmarkBatchVerifyRecoverable measures hinted batch verification
// (ns/op is per verification): every signature carries a nonce-point
// recovery hint, so the whole batch settles through one randomised
// linear-combination multi-scalar evaluation instead of one joint
// ladder per request. The numbered sub-benchmarks run the server
// steady state (one key, per-request precomputed tables — the shape
// the eccserve key cache produces); multikey64 runs batch=64 over 64
// distinct keys, where nothing coalesces — the kernel's density gate
// detects that and falls back to per-request ladders, so this measures
// the fallback overhead (recovery + grouping) over plain BatchVerify.
func BenchmarkBatchVerifyRecoverable(b *testing.B) {
	priv, fb, digests, sigs := benchVerifyInputs(b, 128)
	core.Warm()
	hints := make([]byte, len(sigs))
	for i := range sigs {
		h, err := sign.RecoverHint(priv.Public, digests[i], sigs[i])
		if err != nil {
			b.Fatal(err)
		}
		hints[i] = h
	}
	pubs := make([]ec.Affine, len(sigs))
	fbs := make([]*core.FixedBase, len(sigs))
	for i := range pubs {
		pubs[i] = priv.Public
		fbs[i] = fb
	}
	ok := make([]bool, len(sigs))
	checkAll := func(b *testing.B, ok []bool) {
		b.Helper()
		for i := range ok {
			if !ok[i] {
				b.Fatalf("batch rejected valid signature %d", i)
			}
		}
	}
	for _, n := range []int{8, 32, 64, 128} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += n {
				engine.BatchVerifyRecoverable(pubs[:n], fbs[:n], digests[:n], sigs[:n], hints[:n], ok[:n])
			}
			b.StopTimer()
			checkAll(b, ok[:n])
		})
	}
	b.Run("multikey64", func(b *testing.B) {
		const n = 64
		rnd := rand.New(rand.NewSource(74))
		mpubs := make([]ec.Affine, n)
		mdigests := make([][]byte, n)
		msigs := make([]*sign.Signature, n)
		mhints := make([]byte, n)
		for i := 0; i < n; i++ {
			kp, err := core.GenerateKey(rnd)
			if err != nil {
				b.Fatal(err)
			}
			mpubs[i] = kp.Public
			d := sha256.Sum256([]byte{byte(i), 0x57})
			mdigests[i] = d[:]
			sig, hint, err := sign.SignRecoverable(kp, mdigests[i], rnd)
			if err != nil {
				b.Fatal(err)
			}
			msigs[i] = sig
			mhints[i] = hint
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += n {
			engine.BatchVerifyRecoverable(mpubs, nil, mdigests, msigs, mhints, ok[:n])
		}
		b.StopTimer()
		checkAll(b, ok[:n])
	})
}

// BenchmarkInvBatch64 measures the batched-inversion amortisation
// directly: ns/op is per inverted element at each batch size.
func BenchmarkInvBatch64(b *testing.B) {
	rnd := rand.New(rand.NewSource(72))
	for _, n := range []int{1, 8, 32, 128} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			batch := make([]gf233.Elem64, n)
			scratch := make([]gf233.Elem64, n)
			src := make([]gf233.Elem64, n)
			for i := range src {
				src[i] = gf233.ToElem64(gf233.Rand(rnd.Uint32))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += n {
				copy(batch, src)
				gf233.InvBatch64(batch, scratch)
			}
		})
	}
}
