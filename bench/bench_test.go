package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/profile"
)

// smoke is a run shape short enough for a test: quarter-second phases,
// one boot, a token ladder budget.
var smoke = shape{phase: 250 * time.Millisecond, warmup: 250 * time.Millisecond, boots: 1, ladder: 300 * time.Millisecond}

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "eccserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/eccserve").CombinedOutput(); err != nil {
		t.Fatalf("build eccserve: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every declared workload untraced and traced against a
// freshly built eccserve and checks the result contract: every
// declared metric with its unit, no wrong answers, and every kind of
// answer check exercised.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots eccserve")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bin := buildServer(t)
	for _, wl := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			name := wl.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: wl.Name, seed: 1, trace: traced, shape: smoke, eccserve: bin, work: t.TempDir()}
				var report bytes.Buffer
				o, err := run(cfg, sp, &report)
				switch {
				case errors.Is(err, errRunInvalid):
					// Quarter-second phases are one slice each, so a
					// single stall of a shared host breaks a guard.
					t.Logf("%v (the result contract is still checked)", err)
				case err != nil:
					t.Fatalf("run: %v\n%s", err, report.String())
				}
				want := sp.EndToEnd
				if traced {
					want = sp.PerLayer
				}
				for _, d := range want {
					if got, ok := o.Metrics[d.Name]; !ok || got.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, got, d.Unit)
					}
				}
				if len(o.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(o.Metrics), len(want))
				}
				if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
					t.Errorf("correct=%v failed=%d attempted=%d", o.Correct, o.Failed, o.Attempted)
				}
				if traced && o.Metrics["fail_ratio"].Value != 0 {
					t.Errorf("fail_ratio = %v", o.Metrics["fail_ratio"].Value)
				}
				c := o.Checks
				switch wl.Name {
				case "verify-hot":
					if c["verdicts_compared"] == 0 {
						t.Errorf("no verdict compared: %v", c)
					}
				case "cert-fleet":
					if c["corrupt_sigs_invalid"] == 0 || c["verdicts_compared"] == 0 {
						t.Errorf("no corrupted signature answered invalid: %v", c)
					}
				case "sign-ecdh":
					if c["signatures_verified"] == 0 || c["secrets_compared"] == 0 {
						t.Errorf("no server signature verified or ECDH secret compared: %v", c)
					}
				}
			})
		}
	}
}

// TestGuards: each validity guard rejects the run it is for, and a run
// that breaks none passes.
func TestGuards(t *testing.T) {
	p := &phase{name: "busy", open: true, due: make([]int64, 100)}
	for _, c := range []struct {
		name    string
		ok      int
		late    float64
		final   prom
		invalid bool
	}{
		{"clean", 100, 1, prom{}, false},
		{"late generator", 100, maxLate + 1, prom{}, true},
		{"undelivered", 97, 1, prom{}, true},
		{"internal error", 100, 1, prom{"eccserve_internal_errors_total": 1}, true},
		{"bad request", 100, 1, prom{"eccserve_bad_requests_total": 2}, true},
	} {
		run := &phaseRun{p: p, recs: make([]rec, len(p.due))}
		for i := range c.ok {
			run.recs[i].ok = true
		}
		accs := map[string]*phaseAcc{"busy": {p: p, slices: []*phaseRun{run}}}
		err := guards([]*phase{p}, accs, map[string]latencySummary{"busy": {late99: c.late}}, c.final)
		if errors.Is(err, errRunInvalid) != c.invalid {
			t.Errorf("%s: guards = %v, want invalid %v", c.name, err, c.invalid)
		}
	}
}

// TestM0PaperScalar pins the M0+ leg to the profile package: the paper
// scalar's simulated cycle counts are exactly profile.MeasuredKP/KG's.
func TestM0PaperScalar(t *testing.T) {
	m0, err := runM0()
	if err != nil {
		t.Fatal(err)
	}
	costs, err := profile.MeasureOpCosts()
	if err != nil {
		t.Fatal(err)
	}
	kp, err := profile.MeasuredKP(costs, paperScalar())
	if err != nil {
		t.Fatal(err)
	}
	kg, err := profile.MeasuredKG(costs, paperScalar())
	if err != nil {
		t.Fatal(err)
	}
	if m0.paperKP.Cycles != kp.Cycles || m0.paperKG.Cycles != kg.Cycles {
		t.Errorf("paper scalar: kP %d kG %d cycles, profile says %d and %d", m0.paperKP.Cycles, m0.paperKG.Cycles, kp.Cycles, kg.Cycles)
	}
	t.Logf("paper scalar: kP %d cycles, kG %d cycles", kp.Cycles, kg.Cycles)
}

// TestStreamDigest: a seed fixes the request stream byte for byte, and
// another seed changes it.
func TestStreamDigest(t *testing.T) {
	for _, wl := range workloads {
		digest := func(seed int64) string {
			priv, err := serverKey(seed)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := wl.build(seed, priv)
			if err != nil {
				t.Fatal(err)
			}
			warm, ps := phases(wl, tr, config{seed: seed, shape: smoke})
			return streamDigest(append([]*phase{warm}, ps...))
		}
		a, b, c := digest(1), digest(1), digest(2)
		if a != b {
			t.Errorf("%s: seed 1 gave two request streams: %s, %s", wl.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream %s", wl.name, a)
		}
	}
}

// TestSliceKeepsSchedule: slicing an open-loop phase partitions its
// arrivals exactly, each shifted into its slice.
func TestSliceKeepsSchedule(t *testing.T) {
	priv, err := serverKey(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newSignECDH(1, priv)
	if err != nil {
		t.Fatal(err)
	}
	p := openPhase("busy", tr, 1, 2, 4000, 10*time.Second)
	n, d := slicing(p.dur)
	total := 0
	for k := range n {
		s := p.slice(k, n, 0)
		for i, due := range s.due {
			if due < 0 || due > int64(d) || s.reqs[i] != p.reqs[total+i] || due+int64(k)*int64(d) != p.due[total+i] {
				t.Fatalf("slice %d request %d: due %d, misplaced", k, i, due)
			}
		}
		total += len(s.due)
	}
	if total != len(p.due) {
		t.Fatalf("slices hold %d of %d arrivals", total, len(p.due))
	}
}
