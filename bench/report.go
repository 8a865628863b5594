package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// reportRun prints the set-up times, a row per phase and the paper
// scalar's M0+ figures.
func reportRun(w io.Writer, accs map[string]*phaseAcc, ps []*phase, stats map[string]latencySummary, setups []float64, m0 *m0Result) {
	fmt.Fprintf(w, "set-up: %d boots, %s s\n", len(setups), fmtList(setups, "%.3f"))
	fmt.Fprintf(w, "%-12s %6s %8s %8s %9s %8s %8s %-17s %9s %6s\n",
		"phase", "slices", "sent", "ok", "ok/s", "p50 ms", "tail ms", "(pct, n/slice)", "late99 ms", "batch")
	for _, p := range ps {
		a, s := accs[p.name], stats[p.name]
		fmt.Fprintf(w, "%-12s %6d %8d %8d %9.0f %8.3f %8.3f (p%.1f, %6d) %9.3f %6.2f\n",
			p.name, len(a.slices), a.sent(), a.ok(), throughput(a), s.p50, s.p99, 100*s.p99q, s.perWin, s.late99, a.batchMean())
	}
	sat := accs["sat"]
	var tp, cp []float64
	for i, s := range sat.slices {
		tp = append(tp, throughput(&phaseAcc{slices: []*phaseRun{s}}))
		if n := okCount(s); n > 0 {
			cp = append(cp, float64(sat.cpu[i])/1e3/float64(n))
		}
	}
	fmt.Fprintf(w, "light slices: p50 ms %s\nbusy slices: p50 ms %s\n", fmtList(stats["light"].p50s, "%.3f"), fmtList(stats["busy"].p50s, "%.3f"))
	fmt.Fprintf(w, "sat slices: ok/s %s\nsat slices: server CPU us/op %s\n", fmtList(tp, "%.0f"), fmtList(cp, "%.1f"))
	// A shared host's hypervisor takes CPU time from this machine, and
	// every timing slows with it; the share tells a disturbed run or
	// slice from a regression.
	var stolen float64
	var nslices int
	for _, p := range ps {
		a := accs[p.name]
		fmt.Fprintf(w, "%s slices: steal share %s\n", p.name, fmtList(a.steal, "%.3f"))
		for _, x := range a.steal {
			stolen += x
		}
		nslices += len(a.steal)
	}
	fmt.Fprintf(w, "host: %.1f%% of CPU time stolen by the hypervisor while measuring (mean over slices)\n", 100*stolen/float64(max(nslices, 1)))
	fmt.Fprintf(w, "m0 paper scalar: kP %d cycles %.2f uJ, kG %d cycles %.2f uJ (paper: 2761640 / 34.16, 1864470 / 20.63)\n",
		m0.paperKP.Cycles, m0.paperKP.EnergyMicroJ, m0.paperKG.Cycles, m0.paperKG.EnergyMicroJ)
}

func fmtList(xs []float64, format string) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(s, " ")
}

func reportMetrics(w io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// reportTrace prints the per-span self times and the decomposition
// rows: what the wire path costs against the layers beneath it, with
// the unexplained residual printed.
func reportTrace(w io.Writer, wl string, tr *tracer, busy latencySummary, rp *replayResult,
	serverCPU float64, kb int, kernelUS float64, path string) {
	fmt.Fprintf(w, "trace: %d spans written to %s\n", len(tr.spans), path)
	fmt.Fprintf(w, "%-32s %8s %12s %12s\n", "span", "count", "mean us", "self us")
	for _, s := range tr.selfTimes() {
		fmt.Fprintf(w, "%-32s %8d %12.2f %12.2f\n", s.name, s.n,
			float64(s.total)/1e3/float64(s.n), float64(s.own)/1e3/float64(s.n))
	}
	fmt.Fprintf(w, "%s busy: wire p50 %.3f ms = replay p50 %.3f ms + residual %.3f ms\n",
		wl, busy.p50, rp.lat.p50, busy.p50-rp.lat.p50)
	fmt.Fprintf(w, "%s busy: server CPU/op %.2f us = kernel(b=%d) %.2f us + rest-of-engine %.2f us + residual %.2f us\n",
		wl, serverCPU, kb, kernelUS, rp.cpuPerOp-kernelUS, serverCPU-rp.cpuPerOp)
}

// spec is BENCHMARK.json: the workloads and the metrics every run must
// emit, with their units.
type spec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
	PerLayer  []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// conforms checks that m is exactly the declared metric set for the
// run's mode, each with its declared unit.
func (sp *spec) conforms(m metrics, trace bool) error {
	want := sp.EndToEnd
	if trace {
		want = sp.PerLayer
	}
	var errs []error
	seen := map[string]bool{}
	for _, d := range want {
		seen[d.Name] = true
		got, ok := m[d.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("declared metric %s not measured", d.Name))
		case got.Unit != d.Unit:
			errs = append(errs, fmt.Errorf("metric %s in %s, declared in %s", d.Name, got.Unit, d.Unit))
		}
	}
	for name := range m {
		if !seen[name] {
			errs = append(errs, fmt.Errorf("metric %s measured but not declared", name))
		}
	}
	return errors.Join(errs...)
}
