package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ec"
	"repro/internal/ecqv"
	"repro/internal/engine"
	"repro/internal/gf233"
	"repro/internal/tables"
)

// The ecqv command times the implicit-certificate subsystem per field
// backend: issuance, one-shot public-key extraction, and the batched
// extraction kernel that amortises the batch-wide inversions — the
// same lever BatchVerify uses, applied to certificate chains.

const ecqvBatch = 32

func ecqvCmd() error {
	rnd := rand.New(rand.NewSource(77))
	caPriv, err := ecqv.NewRequest(rnd)
	if err != nil {
		return err
	}
	ca := ecqv.NewCA(caPriv)

	// A pool of issued certificates plus their extraction inputs.
	certs := make([]ec.Affine, ecqvBatch)
	digests := make([][]byte, ecqvBatch)
	var oneCert *ecqv.Cert
	reqPriv, err := ecqv.NewRequest(rnd)
	if err != nil {
		return err
	}
	for i := range certs {
		identity := []byte(fmt.Sprintf("bench-node-%04d", i))
		cert, _, err := ca.Issue(reqPriv.Public, identity, rnd)
		if err != nil {
			return err
		}
		certs[i] = cert.Point
		d := cert.Digest(ca.Public())
		digests[i] = d[:]
		if i == 0 {
			oneCert = cert
		}
	}
	out := make([]engine.ExtractResult, ecqvBatch)
	issueIdentity := []byte("bench-issue")

	withBackend := func(b gf233.Backend, f func()) func() {
		return func() {
			prev := gf233.SetBackend(b)
			defer gf233.SetBackend(prev)
			f()
		}
	}
	bench := func(b gf233.Backend, f func()) time.Duration {
		if b == gf233.BackendCLMUL && !gf233.HasCLMUL() {
			return 0
		}
		return hostBench(withBackend(b, f))
	}
	issue := func() {
		// nil rand: the deterministic-nonce DRBG, so the timing has no
		// entropy-pool noise in it.
		if _, _, err := ca.Issue(reqPriv.Public, issueIdentity, nil); err != nil {
			panic(err)
		}
	}
	extract := func() {
		if _, err := ecqv.Extract(oneCert, ca.Public()); err != nil {
			panic(err)
		}
	}
	batched := func() {
		engine.BatchExtract(certs, ca.Public(), digests, out)
	}

	type row struct {
		op    string
		perOp int // ops amortised per call (1, or the batch width)
		b64   time.Duration
		clmul time.Duration
	}
	rows := []row{
		{"issue (deterministic nonce)", 1,
			bench(gf233.Backend64, issue),
			bench(gf233.BackendCLMUL, issue)},
		{"extract (one-shot)", 1,
			bench(gf233.Backend64, extract),
			bench(gf233.BackendCLMUL, extract)},
		{fmt.Sprintf("extract (batched %d, per cert)", ecqvBatch), ecqvBatch,
			bench(gf233.Backend64, batched),
			bench(gf233.BackendCLMUL, batched)},
	}

	t := tables.New(fmt.Sprintf(
		"ECQV implicit certificates per backend (current: %s, CLMUL hardware: %v).",
		gf233.CurrentBackend(), gf233.HasCLMUL()),
		"Operation", "64-bit", "clmul")
	cell := func(d time.Duration, per int) any {
		if d == 0 {
			return "-"
		}
		return d / time.Duration(per)
	}
	for _, r := range rows {
		t.Row(r.op, cell(r.b64, r.perOp), cell(r.clmul, r.perOp))
	}
	one := rows[1]
	bat := rows[2]
	if one.b64 > 0 && bat.b64 > 0 {
		t.Note("batched-extraction amortisation (64-bit): %.2fx over one-shot at batch %d.",
			float64(one.b64)/(float64(bat.b64)/float64(ecqvBatch)), ecqvBatch)
	}
	t.Note("The batched row shares two batch-wide inversion passes across the whole")
	t.Note("batch (Montgomery's trick) and validates certificate points with the")
	t.Note("exact halving-trace subgroup test instead of the tau-adic ladder.")
	fmt.Print(t)
	return nil
}
