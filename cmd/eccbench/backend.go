package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/gf233"
	"repro/internal/sign"
	"repro/internal/tables"
)

// The backend command reports host-side timings of the two field
// backends next to each other — the portable 4x64-bit fast path and the
// PCLMULQDQ carry-less multiply path — at the field level (mul/sqr/inv)
// and at the protocol level (kP, kG, verify). The field rows also time
// the paper-faithful 8x32-bit routines. On hardware without CLMUL the
// clmul column prints "-".

// hostBench measures f's per-call wall time, growing the iteration
// count until the sample is long enough to trust.
func hostBench(f func()) time.Duration {
	f() // warm up (first call may build tables)
	for n := 1; ; n *= 2 {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		elapsed := time.Since(start)
		if elapsed >= 20*time.Millisecond || n > 1<<30 {
			return elapsed / time.Duration(n)
		}
	}
}

func backend() error {
	rnd := rand.New(rand.NewSource(99))
	x, y := gf233.Rand(rnd.Uint32), gf233.Rand(rnd.Uint32)
	x64, y64 := gf233.ToElem64(x), gf233.ToElem64(y)
	k := benchScalar()
	g := ec.Gen()
	// Verification fixtures: a key pair, a signature, and the key's
	// precomputed wide-window table.
	vpriv, err := core.GenerateKey(rnd)
	if err != nil {
		return err
	}
	vdigest := sha256.Sum256([]byte("eccbench verify"))
	vsig, err := sign.SignDeterministic(vpriv, vdigest[:])
	if err != nil {
		return err
	}
	vtab := core.NewFixedBase(vpriv.Public, core.WPrecomp)

	type row struct {
		op    string
		b32   time.Duration
		b64   time.Duration
		clmul time.Duration
	}
	withBackend := func(b gf233.Backend, f func()) func() {
		return func() {
			prev := gf233.SetBackend(b)
			defer gf233.SetBackend(prev)
			f()
		}
	}
	// clmulBench measures f only where the CLMUL hardware exists; on
	// other machines the column stays "-" instead of silently timing
	// the fallback.
	clmulBench := func(f func()) time.Duration {
		if !gf233.HasCLMUL() {
			return 0
		}
		return hostBench(f)
	}
	rows := []row{
		{"field mul",
			hostBench(func() { x = gf233.MulLDFixed(x, y) }),
			hostBench(func() { x64 = gf233.MulLD64(x64, y64) }),
			clmulBench(func() { x64 = gf233.MulClmul(x64, y64) })},
		{"field mul (karatsuba)", 0,
			hostBench(func() { x64 = gf233.MulKaratsuba64(x64, y64) }), 0},
		{"field sqr",
			hostBench(func() { x = gf233.SqrInterleaved(x) }),
			hostBench(func() { x64 = gf233.SqrSpread64(x64) }),
			clmulBench(func() { x64 = gf233.SqrClmul(x64) })},
		{"field inv",
			hostBench(func() { x, _ = gf233.InvEEA(x) }),
			hostBench(func() { x64, _ = gf233.Inv64(x64) }),
			clmulBench(func() { x64, _ = gf233.InvItohTsujii64(x64) })},
		{"kP (wTNAF w=4)", 0,
			hostBench(withBackend(gf233.Backend64, func() { core.ScalarMult(k, g) })),
			clmulBench(withBackend(gf233.BackendCLMUL, func() { core.ScalarMult(k, g) }))},
		{"kG (wTNAF w=6)", 0,
			hostBench(withBackend(gf233.Backend64, func() { core.ScalarBaseMultTNAF(k) })),
			clmulBench(withBackend(gf233.BackendCLMUL, func() { core.ScalarBaseMultTNAF(k) }))},
		{"kG (comb w=8)", 0,
			hostBench(withBackend(gf233.Backend64, func() { core.ScalarBaseMult(k) })),
			clmulBench(withBackend(gf233.BackendCLMUL, func() { core.ScalarBaseMult(k) }))},
		{"verify (separate, seed)", 0,
			hostBench(withBackend(gf233.Backend64, func() { sign.VerifySeparate(vpriv.Public, vdigest[:], vsig) })),
			clmulBench(withBackend(gf233.BackendCLMUL, func() { sign.VerifySeparate(vpriv.Public, vdigest[:], vsig) }))},
		{"verify (joint ladder)", 0,
			hostBench(withBackend(gf233.Backend64, func() { sign.Verify(vpriv.Public, vdigest[:], vsig) })),
			clmulBench(withBackend(gf233.BackendCLMUL, func() { sign.Verify(vpriv.Public, vdigest[:], vsig) }))},
		{"verify (joint, precomputed key)", 0,
			hostBench(withBackend(gf233.Backend64, func() { sign.VerifyPrecomputed(vpriv.Public, vtab, vdigest[:], vsig) })),
			clmulBench(withBackend(gf233.BackendCLMUL, func() { sign.VerifyPrecomputed(vpriv.Public, vtab, vdigest[:], vsig) }))},
	}

	t := tables.New(fmt.Sprintf(
		"Host backends: 4x64-bit vs CLMUL, field rows also 8x32-bit reference (current: %s, CLMUL hardware: %v).",
		gf233.CurrentBackend(), gf233.HasCLMUL()),
		"Operation", "32-bit", "64-bit", "clmul", "clmul/64")
	cell := func(d time.Duration) any {
		if d == 0 {
			return "-"
		}
		return d
	}
	for _, r := range rows {
		speedup := "-"
		if r.b64 != 0 && r.clmul != 0 {
			speedup = fmt.Sprintf("%.2fx", float64(r.b64)/float64(r.clmul))
		}
		t.Row(r.op, cell(r.b32), cell(r.b64), cell(r.clmul), speedup)
	}
	t.Note("The 32-bit cells time the paper-faithful Cortex-M0+ word-layout routines")
	t.Note("that opcount/codegen instrument; point arithmetic always runs 64-bit.")
	t.Note("The clmul rows run the PCLMULQDQ assembly (field mul/sqr) and the")
	t.Note("Itoh-Tsujii chain (field inv); protocol rows pin the whole stack to")
	t.Note("the named backend via SetBackend.")
	t.Note("kG comb rows share the fixed-base comb table; the backends differ in")
	t.Note("the underlying field arithmetic only.")
	t.Note("verify rows: 'separate' is the seed two-multiplication verifier;")
	t.Note("'joint' is the interleaved double-scalar ladder; the precomputed")
	t.Note("row uses a per-key wide-window table (PublicKey.Precompute).")
	fmt.Print(t)
	return nil
}
