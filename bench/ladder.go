package main

import (
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/ecdh"
	"repro/internal/ecqv"
	"repro/internal/engine"
	"repro/internal/gf233"
	"repro/internal/koblitz"
	"repro/internal/sign"
)

// The layer ladder times the library's public functions one layer at a
// time, from the field up to the engine's slice kernels: the host
// analogue of the paper's per-phase accounting.

// probe is one timed public call.
type probe struct {
	name    string // ns/op metric; its module is the text before the first '.'
	allocs  string // allocs/op metric, or ""
	per     int    // operations per call: the batch size of a slice kernel
	backend gf233.Backend
	field   bool // runs under backend, then restores the previous one
	fn      func()
	check   func() error // verifies the last call's output, when it has one
}

// ladderFix is the seeded input set every probe draws from.
type ladderFix struct {
	ks       []*big.Int
	elems    []gf233.Elem64
	pts      []ec.Affine // subgroup points
	keys     []*core.PrivateKey
	fbs      []*core.FixedBase // keys[i]'s verification table
	digests  [][]byte
	hot      []*sign.Signature // digests[i] signed by keys[i%hotSigners]
	hotHint  []byte
	own      []*sign.Signature // digests[i] signed by keys[i]
	ownHint  []byte
	ca       *ecqv.CA
	reqPts   []ec.Affine
	ids      [][]byte
	certs    []*ecqv.Cert
	certPts  []ec.Affine
	certDigs [][]byte
}

const ladderN = 32

func newLadderFix(seed int64) (*ladderFix, error) {
	f := &ladderFix{}
	r, kr := seededRand(seed, streamLadder), keyReader(seed, streamLadder)
	f.ks = randomScalars(r, 16)
	for len(f.elems) < ladderN {
		if e := gf233.Rand(r.Uint32); !e.IsZero() {
			f.elems = append(f.elems, gf233.ToElem64(e))
		}
	}
	caKey, err := core.GenerateKey(kr)
	if err != nil {
		return nil, err
	}
	f.ca = ecqv.NewCA(caKey)
	for i := range ladderN {
		k, err := core.GenerateKey(kr)
		if err != nil {
			return nil, err
		}
		f.keys = append(f.keys, k)
		f.pts = append(f.pts, k.Public)
		f.fbs = append(f.fbs, core.NewFixedBase(k.Public, core.WPrecomp))
		f.digests = append(f.digests, randomDigest(r))
		sig, hint, err := sign.SignRecoverableDeterministic(f.keys[i%hotSigners], f.digests[i])
		if err != nil {
			return nil, err
		}
		f.hot, f.hotHint = append(f.hot, sig), append(f.hotHint, hint)
		sig, hint, err = sign.SignRecoverableDeterministic(k, f.digests[i])
		if err != nil {
			return nil, err
		}
		f.own, f.ownHint = append(f.own, sig), append(f.ownHint, hint)
		rq, err := ecqv.NewRequest(kr)
		if err != nil {
			return nil, err
		}
		id := []byte(fmt.Sprintf("ladder-%02d", i))
		cert, _, err := f.ca.Issue(rq.Public, id, kr)
		if err != nil {
			return nil, err
		}
		d := cert.Digest(f.ca.Public())
		f.reqPts, f.ids = append(f.reqPts, rq.Public), append(f.ids, id)
		f.certs, f.certPts, f.certDigs = append(f.certs, cert), append(f.certPts, cert.Point), append(f.certDigs, d[:])
	}
	return f, nil
}

// Sinks keep the compiler from discarding a probed call's result.
var (
	sinkElem   gf233.Elem64
	sinkPoint  ec.Affine
	sinkLD     ec.LD64
	sinkAny    any
	sinkDigits int
)

func allTrue(ok []bool) error {
	if i := slices.Index(ok, false); i >= 0 {
		return fmt.Errorf("%w: entry %d rejected", errWrongAnswer, i)
	}
	return nil
}

// verifyRProbe is the hinted linear-combination kernel over b requests
// from keys distinct keys, each with its resident table.
func verifyRProbe(f *ladderFix, name string, b, keys int) probe {
	pubs, fbs, ds, sigs, hints := make([]ec.Affine, b), make([]*core.FixedBase, b), make([][]byte, b), make([]*sign.Signature, b), make([]byte, b)
	for i := range b {
		j := i % ladderN
		k := j % keys
		pubs[i], fbs[i], ds[i] = f.pts[k], f.fbs[k], f.digests[j]
		if keys == hotSigners {
			sigs[i], hints[i] = f.hot[j], f.hotHint[j]
		} else {
			sigs[i], hints[i] = f.own[j], f.ownHint[j]
		}
	}
	ok := make([]bool, b)
	return probe{name: name + "_ns", allocs: name + "_allocs", per: b,
		fn:    func() { engine.BatchVerifyRecoverable(pubs, fbs, ds, sigs, hints, ok) },
		check: func() error { return allTrue(ok) }}
}

// verifyTablesProbe is the per-request joint-ladder kernel over b
// requests from distinct keys with resident tables.
func verifyTablesProbe(f *ladderFix, name string, b int) probe {
	pubs, fbs, ds, sigs := make([]ec.Affine, b), make([]*core.FixedBase, b), make([][]byte, b), make([]*sign.Signature, b)
	for i := range b {
		j := i % ladderN
		pubs[i], fbs[i], ds[i], sigs[i] = f.pts[j], f.fbs[j], f.digests[j], f.own[j]
	}
	ok := make([]bool, b)
	return probe{name: name + "_ns", allocs: name + "_allocs", per: b,
		fn:    func() { engine.BatchVerifyTables(pubs, fbs, ds, sigs, ok) },
		check: func() error { return allTrue(ok) }}
}

func signProbe(f *ladderFix, name string, b int) probe {
	ds := make([][]byte, b)
	for i := range ds {
		ds[i] = f.digests[i%ladderN]
	}
	out := make([]engine.SignResult, b)
	rng := keyReader(1, streamLadder)
	return probe{name: name + "_ns", allocs: name + "_allocs", per: b,
		fn: func() { engine.BatchSign(f.keys[0], ds, rng, out) },
		check: func() error {
			for i, o := range out {
				if o.Err != nil || !sign.Verify(f.keys[0].Public, ds[i], &o.Sig) {
					return fmt.Errorf("%w: batch signature %d (%v)", errWrongAnswer, i, o.Err)
				}
			}
			return nil
		}}
}

func ecdhProbe(f *ladderFix, name string, b int) probe {
	peers := make([]ec.Affine, b)
	for i := range peers {
		peers[i] = f.pts[1+i%(ladderN-1)]
	}
	out := make([]engine.ECDHResult, b)
	return probe{name: name + "_ns", allocs: name + "_allocs", per: b,
		fn: func() { engine.BatchSharedSecret(f.keys[0], peers, out) },
		check: func() error {
			for i, o := range out {
				if o.Err != nil {
					return fmt.Errorf("batch ECDH %d: %w", i, o.Err)
				}
			}
			return nil
		}}
}

// kernelProbe is the slice kernel under a workload's batches, at the
// batch size the workload's busy phase formed.
func kernelProbe(f *ladderFix, workload string, b int) probe {
	switch workload {
	case "verify-hot":
		return verifyRProbe(f, "kernel", b, hotSigners)
	case "cert-fleet":
		return verifyTablesProbe(f, "kernel", b)
	}
	s, e := signProbe(f, "kernel", (b+1)/2), ecdhProbe(f, "kernel", max(b/2, 1))
	return probe{name: "kernel_ns", per: (b+1)/2 + max(b/2, 1),
		fn:    func() { s.fn(); e.fn() },
		check: func() error { return errors.Join(s.check(), e.check()) }}
}

// probes is the ladder, field first.
func probes(f *ladderFix) []probe {
	var ps []probe
	a, b := f.elems[0], f.elems[1]
	invBuf, invScratch := make([]gf233.Elem64, ladderN), make([]gf233.Elem64, ladderN)
	for _, bk := range []struct {
		tag string
		be  gf233.Backend
	}{{"64", gf233.Backend64}, {"clmul", gf233.BackendCLMUL}} {
		ps = append(ps,
			probe{name: "gf233.mul_ns." + bk.tag, backend: bk.be, field: true, fn: func() { sinkElem = gf233.Mul64(a, b) }},
			probe{name: "gf233.sqr_ns." + bk.tag, backend: bk.be, field: true, fn: func() { sinkElem = gf233.Sqr64(a) }},
			probe{name: "gf233.inv_ns." + bk.tag, backend: bk.be, field: true, fn: func() { sinkElem = gf233.MustInv64(a) }},
			probe{name: "gf233.invbatch32_ns." + bk.tag, backend: bk.be, field: true, per: ladderN, fn: func() {
				copy(invBuf, f.elems)
				gf233.InvBatch64(invBuf, invScratch)
			}})
	}

	ks := koblitz.Scratch{}
	var ki int
	nextK := func() *big.Int { ki = (ki + 1) % len(f.ks); return f.ks[ki] }
	ps = append(ps,
		probe{name: "koblitz.recode_ns", fn: func() { sinkDigits = len(ks.Recode(nextK(), core.WRandom)) }},
		probe{name: "koblitz.recode_wide_ns", fn: func() { sinkDigits = len(ks.RecodeWide(nextK(), core.WJoint)) }})

	var ms core.MultiScalar
	weights := make([]uint64, ladderN)
	for i := range weights {
		weights[i] = f.ks[i%len(f.ks)].Uint64() >> 1 // 63-bit, as the batch verifier draws them
	}
	pts64 := make([]ec.Affine64, ladderN)
	for i, p := range f.pts {
		pts64[i] = p.To64()
	}
	ps = append(ps,
		probe{name: "core.kp_ns", fn: func() { sinkPoint = core.ScalarMult(nextK(), f.pts[0]) }},
		probe{name: "core.kg_ns", fn: func() { sinkPoint = core.ScalarBaseMult(nextK()) }},
		probe{name: "core.joint_fixed_ns", fn: func() { sinkPoint = core.JointScalarMultFixed(nextK(), f.ks[0], f.fbs[0]) }},
		probe{name: "core.multiscalar32_ns", per: ladderN, fn: func() {
			ms.Reset()
			ms.AddGen(nextK())
			for k := range hotSigners {
				ms.AddFixed(f.ks[k], f.fbs[k])
			}
			for i, p := range pts64 {
				ms.AddWeighted(weights[i], p)
			}
			sinkLD = ms.Eval()
		}},
		probe{name: "core.precompute_ns", fn: func() { sinkAny = core.NewFixedBase(f.pts[ki%ladderN], core.WPrecomp); ki++ }},
		probe{name: "core.insubgroup_ns", fn: func() { sinkAny = core.InSubgroup(f.pts[ki%ladderN]); ki++ }})

	hardened := *f.keys[0]
	hardened.ConstTime = true
	var sig *sign.Signature
	rng := keyReader(2, streamLadder)
	var ecdhErr error
	keyBytes := f.pts[0].EncodeCompressed()
	ps = append(ps,
		probe{name: "sign.sign_ns", allocs: "sign.sign_allocs", fn: func() { sig, _ = sign.Sign(f.keys[0], f.digests[0], rng) },
			check: func() error {
				if sig == nil || !sign.Verify(f.keys[0].Public, f.digests[0], sig) {
					return fmt.Errorf("%w: one-shot signature", errWrongAnswer)
				}
				return nil
			}},
		probe{name: "sign.sign_hardened_ns", fn: func() { sig, _ = sign.Sign(&hardened, f.digests[0], rng) }},
		probe{name: "sign.verify_precomp_ns", fn: func() { sinkAny = sign.VerifyPrecomputed(f.pts[0], f.fbs[0], f.digests[0], f.own[0]) }},
		// The τ-adic validator's one-shot, as PrivateKey.SharedSecret runs it.
		probe{name: "ecdh.shared_ns", allocs: "ecdh.shared_allocs", fn: func() { sinkAny, ecdhErr = ecdh.SharedSecretTau(f.keys[0], f.pts[1]) },
			check: func() error { return ecdhErr }},
		probe{name: "ecqv.issue_ns", allocs: "ecqv.issue_allocs", fn: func() { sinkAny, _, _ = f.ca.Issue(f.reqPts[0], f.ids[0], rng) }},
		probe{name: "ecqv.extract_ns", allocs: "ecqv.extract_allocs", fn: func() { sinkPoint, _ = ecqv.Extract(f.certs[0], f.ca.Public()) }},
		probe{name: "repro.keybuild_ns", fn: func() {
			k, err := repro.NewPublicKey(keyBytes)
			if err == nil {
				k.Precompute()
			}
			sinkAny = k
		}})

	extractOut := make([]engine.ExtractResult, ladderN)
	ps = append(ps,
		verifyRProbe(f, "engine.verifyr32", ladderN, hotSigners),
		verifyRProbe(f, "engine.verifyr32_fleet", ladderN, ladderN),
		verifyTablesProbe(f, "engine.verify32", ladderN),
		signProbe(f, "engine.sign32", ladderN),
		ecdhProbe(f, "engine.ecdh32", ladderN),
		probe{name: "engine.extract32_ns", allocs: "engine.extract32_allocs", per: ladderN,
			fn: func() { engine.BatchExtract(f.certPts, f.ca.Public(), f.certDigs, extractOut) },
			check: func() error {
				for i, o := range extractOut {
					if o.Err != nil {
						return fmt.Errorf("batch extract %d: %w", i, o.Err)
					}
				}
				return nil
			}})
	return ps
}

// timing is one probe's result.
type timing struct {
	nsPerOp, allocsPerOp float64
	start, end           time.Time
}

// measure times p for about budget: a calibration call, then three
// rounds of equal length, reporting the median round.
func measure(p probe, budget time.Duration) (timing, error) {
	if p.per == 0 {
		p.per = 1
	}
	if p.field {
		prev := gf233.SetBackend(p.backend)
		defer gf233.SetBackend(prev)
	}
	t := timing{start: time.Now()}
	p.fn()
	one := time.Since(t.start)
	iters := int(min(max(budget/3/max(one, time.Nanosecond), 1), 1<<20))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rounds := make([]float64, 3)
	for r := range rounds {
		s := time.Now()
		for range iters {
			p.fn()
		}
		rounds[r] = float64(time.Since(s)) / float64(iters*p.per)
	}
	runtime.ReadMemStats(&m1)
	t.end = time.Now()
	t.nsPerOp = median(rounds)
	t.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(3*iters*p.per)
	if p.check != nil {
		if err := p.check(); err != nil {
			return t, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return t, nil
}

// runLadder measures every probe within budget, recording a
// layer.<module> span per module with a child span per probe.
func runLadder(f *ladderFix, budget time.Duration, m metrics, tr *tracer) error {
	ps := probes(f)
	each := budget / time.Duration(len(ps))
	var root int64
	var module string
	var rootStart int64
	for _, p := range ps {
		t, err := measure(p, each)
		if err != nil {
			return err
		}
		m.set(p.name, "ns", t.nsPerOp)
		if p.allocs != "" {
			m.set(p.allocs, "allocs", t.allocsPerOp)
		}
		if tr == nil {
			continue
		}
		mod, _, _ := strings.Cut(p.name, ".")
		if mod != module {
			module, rootStart = mod, tr.at(t.start)
			root = tr.add("layer."+mod, 0, laneLadder, rootStart, rootStart)
		}
		tr.add(p.name, root, laneLadder, tr.at(t.start), tr.at(t.end))
		tr.spans[root-1].end = tr.at(t.end)
	}
	if tr != nil {
		tr.lanes[laneLadder] = "layer ladder"
	}
	return nil
}
