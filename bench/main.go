// Command bench is the repository's end-to-end benchmark. It boots the
// real cmd/eccserve on loopback with default tunables, drives it from
// this one process with seeded open- and closed-loop traffic, checks
// every answer, and runs the paper's simulated Cortex-M0+ point
// multiplication. A traced run (-trace 1) adds an in-process replay of
// the busy schedule and a ladder of timed calls into every library
// layer, prints where each request's time went, and writes the spans
// as a Chrome trace.
//
// Usage, from the repository root (bench/run.sh builds both binaries):
//
//	bash bench/run.sh -workload verify-hot -seed 1 -seconds 30 -trace 0
//	bash bench/run.sh -compare bench/results/set-a bench/results/set-b
//
// The last line of standard output is the run's result as one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A run that
// breaks a validity guard prints no result and exits 1.
package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/frame"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wname   = fs.String("workload", "", "workload to run")
		seed    = fs.Int64("seed", 1, "seed every input of the run is drawn from")
		seconds = fs.Int("seconds", 30, "measured seconds, shared by the measured phases")
		traced  = fs.Int("trace", 0, "1: traced run, printing the per-layer metrics instead of the end-to-end ones")
		out     = fs.String("out", "", "also write the run's full record (workload, seed, checks, metrics) to this file")
		bin     = fs.String("eccserve", "", "eccserve binary to benchmark")
		work    = fs.String("work", "", "directory for the run's key file and its trace, trace-<workload>.json")
		compare = fs.Bool("compare", false, "compare two sets of -out records: bench -compare PARENT CHANGE")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		regressed, err := compareMain(sp, fs.Args(), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *bin == "" || *work == "" || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "bench: need -eccserve, -work, -seconds >= 1 and -trace 0|1 (use bench/run.sh)")
		return 2
	}
	cfg := config{
		workload: *wname, seed: *seed, trace: *traced == 1,
		shape: shapeFor(*seconds, *traced == 1), eccserve: *bin, work: *work,
	}
	o, err := run(cfg, sp, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		b, _ := json.MarshalIndent(o, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, _ := json.Marshal(o.result)
	fmt.Fprintln(stdout, string(line))
	return 0
}

// shape is how long each part of a run takes.
type shape struct {
	phase  time.Duration // each measured phase, run as interleaved one-second slices
	warmup time.Duration // discarded, at the busy rate
	boots  int           // complete set-ups at least; setup_s is their median
	setup  time.Duration // further set-ups, up to maxBoots, while the set-ups so far took less
	ladder time.Duration // traced run: the layer ladder's budget
}

// maxBoots caps the set-up repetitions. A set-up of tens of
// milliseconds (exec, runtime start, a few table builds) varies by a
// quarter from one boot to the next, so the cheap workloads repeat it
// until a second is spent (about 40 times); cert-fleet's, seconds
// long, runs 3 times.
const maxBoots = 50

// shapeFor splits the measured seconds: an untraced run spends them on
// the light, busy and sat phases; a traced run on the light, busy,
// traced-busy and sat phases and the ladder, so both take about the
// same wall time.
func shapeFor(seconds int, trace bool) shape {
	s := time.Duration(seconds) * time.Second
	if trace {
		return shape{phase: s / 5, warmup: 2 * time.Second, boots: 1, ladder: s / 5}
	}
	return shape{phase: s / 3, warmup: 2 * time.Second, boots: 3, setup: time.Second}
}

type config struct {
	workload string
	seed     int64
	trace    bool
	shape    shape
	eccserve string
	work     string
}

// Load shape: one connection per CPU, and in the closed loop 64
// requests in flight on each, below the server's default in-flight cap
// of 4·shards·batch, so saturation measures capacity without shedding.
const perConn = 64

// Run-validity guards. Lateness is already inside every latency figure
// (requests are timed from their due tick); the guard catches a
// generator that fell behind its schedule. On a 2-vCPU host shared with
// the server, kernel scheduling alone pushes the 99th percentile to
// 2–7 ms in disturbed periods, so the bound sits above that.
const (
	maxLate     = 10.0 // ms: the generator's 99th-percentile lateness
	minDelivery = 0.98 // share of an open-loop schedule answered correctly
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{v, unit} }

// result is the line the run ends with.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outcome is a run's full record, as -out writes it.
type outcome struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Trace    bool             `json:"trace"`
	Digest   string           `json:"request_stream_digest"`
	Checks   map[string]int64 `json:"checks"`
	result
}

// phases draws the warm-up and the measured phases from the seed.
func phases(wl workload, t traffic, cfg config) (*phase, []*phase) {
	sh := cfg.shape
	warm := openPhase("warmup", t, cfg.seed, 0, wl.busy, sh.warmup)
	ps := []*phase{
		openPhase("light", t, cfg.seed, 1, wl.light, sh.phase),
		openPhase("busy", t, cfg.seed, 2, wl.busy, sh.phase),
	}
	if cfg.trace {
		ps = append(ps, openPhase("busy.traced", t, cfg.seed, 3, wl.busy, sh.phase))
	}
	return warm, append(ps, closedPhase("sat", t, cfg.seed, 4, sh.phase))
}

// tally counts every request a run sends and every wrong answer.
type tally struct{ attempted, failed int }

func (t *tally) add(run *phaseRun) { t.attempted += len(run.recs); t.failed += run.failed }

func run(cfg config, sp *spec, w io.Writer) (*outcome, error) {
	if !slices.ContainsFunc(sp.Workloads, func(x specWorkload) bool { return x.Name == cfg.workload }) {
		return nil, fmt.Errorf("workload %q is not declared in the benchmark spec", cfg.workload)
	}
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	priv, err := serverKey(cfg.seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	keyFile := filepath.Join(dir, "server.key")
	if err := os.WriteFile(keyFile, []byte(hex.EncodeToString(priv.Bytes())), 0o600); err != nil {
		return nil, err
	}

	s := &session{cfg: cfg}
	defer s.close()
	setups, err := s.setUp(wl, keyFile, priv)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	t := s.t
	warm, measured := phases(wl, t, cfg)
	all := append([]*phase{warm}, measured...)
	o := &outcome{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Digest: streamDigest(all), result: result{Metrics: metrics{}}}
	fmt.Fprintf(w, "bench: workload %s seed %d trace %v, request stream %s\n", cfg.workload, cfg.seed, cfg.trace, o.Digest[:16])
	shards := shardConfig{s.srv.shards, s.srv.batch, s.srv.window}
	accs, first, final, err := s.measure(warm, measured)
	if err != nil {
		return nil, err
	}
	rss, err := s.srv.peakRSS()
	if err != nil {
		return nil, err
	}
	s.g.close()
	stopErr := s.srv.stop()
	s.srv, s.g = nil, nil
	if stopErr != nil {
		return nil, stopErr
	}

	stats := map[string]latencySummary{}
	for name, a := range accs {
		stats[name] = summarize(a)
	}
	// An invalid run still computes every figure, so that a test can
	// check the result's shape on a host too disturbed to measure.
	invalid := guards(measured, accs, stats, final)
	m0, err := runM0()
	if err != nil {
		return nil, fmt.Errorf("m0: %w", err)
	}
	for _, p := range all {
		if n, first := accs[p.name].failed(); n > 0 {
			fmt.Fprintf(w, "bench: %s: %d wrong answers, first: %v\n", p.name, n, first)
		}
	}
	reportRun(w, accs, all, stats, setups, m0)

	m := o.Metrics
	failed := s.tl.failed
	if !cfg.trace {
		m.set("setup_s", "s", median(setups))
		m.set("light.p50_ms", "ms", stats["light"].p50)
		m.set("busy.p50_ms", "ms", stats["busy"].p50)
		m.set("cpu_us_per_op", "us", cpuPerOp(accs["sat"]))
		m.set("rss_mb", "MiB", rss)
		m.set("m0.kp_cycles", "cycles", m0.mean(m0.kp.Cycles))
		m.set("m0.kg_cycles", "cycles", m0.mean(m0.kg.Cycles))
		m.set("m0.kp_uj", "uJ", m0.kp.EnergyMicroJ/float64(m0.n))
		m.set("m0.kg_uj", "uJ", m0.kg.EnergyMicroJ/float64(m0.n))
	} else {
		rp, err := layers(cfg, t, accs, stats, first, final, shards, m0, m, w)
		if err != nil {
			return nil, err
		}
		s.tl.attempted += rp.acc.sent()
		n, _ := rp.acc.failed()
		failed += n
		m.set("fail_ratio", "ratio", float64(failed)/float64(max(s.tl.attempted, 1)))
	}
	o.Attempted, o.Failed, o.Correct, o.Checks = s.tl.attempted, failed, failed == 0, t.checks()
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	if err := sp.conforms(m, cfg.trace); err != nil {
		return nil, err
	}
	reportMetrics(w, m)
	return o, invalid
}

// session is one run's server process and connections.
type session struct {
	cfg config
	t   traffic
	srv *server
	g   *loadGen
	tl  tally
}

func (s *session) close() {
	if s.g != nil {
		s.g.close()
	}
	if s.srv != nil {
		s.srv.kill()
	}
}

// setUp draws the client's inputs from the seed, then runs the server's
// set-up as often as cfg.shape asks, each time from scratch: exec a
// fresh server, dial, handshake and send the warm set. A set-up is
// timed from the exec to the warm set's last answer; the client's own
// work (drawing the inputs, completing them from the warm set's
// answers) is outside it. It keeps the last server and returns each
// set-up's duration in seconds.
func (s *session) setUp(wl workload, keyFile string, priv *repro.PrivateKey) ([]float64, error) {
	t, err := wl.build(s.cfg.seed, priv)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	s.t = t
	var setups []float64
	var spent float64
	sh := s.cfg.shape
	for len(setups) < sh.boots || len(setups) < maxBoots && spent < sh.setup.Seconds() {
		if s.srv != nil {
			s.g.close()
			err := s.srv.stop()
			s.srv, s.g = nil, nil
			if err != nil {
				return nil, err
			}
		}
		runtime.GC() // each repetition starts from the same heap
		start := time.Now()
		if err := s.boot(keyFile, priv); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		spent += setups[len(setups)-1]
		if err := s.t.finish(); err != nil {
			return nil, err
		}
	}
	return setups, nil
}

// boot execs the server, dials one connection per CPU, checks the
// server's identity on each and sends the workload's warm set.
func (s *session) boot(keyFile string, priv *repro.PrivateKey) error {
	srv, err := startServer(s.cfg.eccserve, keyFile)
	if err != nil {
		return err
	}
	s.srv, s.g = srv, &loadGen{}
	want := priv.PublicKey().BytesCompressed()
	for range runtime.NumCPU() {
		w, err := dial(srv.addr)
		if err != nil {
			return err
		}
		s.g.conns = append(s.g.conns, w)
		w.nc.SetDeadline(time.Now().Add(10 * time.Second))
		f, err := w.fc.Roundtrip(s.g.nextID, frame.TPing)
		s.g.nextID++
		s.tl.attempted++
		if err != nil {
			return fmt.Errorf("handshake: %w", err)
		}
		if f.Type != frame.TOK || !bytes.Equal(f.Payload, want) {
			return fmt.Errorf("handshake: the server does not hold the seeded key")
		}
		w.nc.SetDeadline(time.Time{})
	}
	warm := &phase{name: "setup", reqs: s.t.warmSet()}
	r, err := s.g.closed(s.t, warm, perConn, len(warm.reqs))
	if err != nil {
		return err
	}
	s.tl.add(r)
	if r.failed > 0 {
		return fmt.Errorf("warm set: %d wrong answers, first: %w", r.failed, r.first)
	}
	return nil
}

// runSlice runs one slice of a phase, bracketed by /metrics scrapes and
// CPU readings, and adds it to acc. It returns the scrapes.
func (s *session) runSlice(acc *phaseAcc, p *phase) (before, after prom, err error) {
	if err := s.srv.alive(); err != nil {
		return nil, nil, err
	}
	if before, err = s.srv.scrape(); err != nil {
		return nil, nil, err
	}
	c0, err := s.srv.cpu()
	if err != nil {
		return nil, nil, err
	}
	self0 := selfCPU()
	total0, steal0, err := hostTicks()
	if err != nil {
		return nil, nil, err
	}
	var r *phaseRun
	if p.open {
		r, err = s.g.open(s.t, p)
	} else {
		r, err = s.g.closed(s.t, p, perConn, 0)
	}
	if err != nil {
		return nil, nil, err
	}
	c1, err := s.srv.cpu()
	if err != nil {
		return nil, nil, err
	}
	self1 := selfCPU()
	total1, steal1, err := hostTicks()
	if err != nil {
		return nil, nil, err
	}
	if after, err = s.srv.scrape(); err != nil {
		return nil, nil, err
	}
	if err := s.t.verifySamples(); err != nil {
		r.fail(err)
	}
	s.tl.add(r)
	acc.slices = append(acc.slices, r)
	acc.cpu = append(acc.cpu, c1-c0)
	acc.steal = append(acc.steal, float64(steal1-steal0)/float64(max(total1-total0, 1)))
	acc.self += self1 - self0
	acc.batches += delta(before, after, "eccserve_batches_total")
	acc.batchOps += delta(before, after, "eccserve_batch_size_sum")
	return before, after, nil
}

// measure runs the warm-up, then the measured phases in interleaved
// rounds: round k runs slice k of every phase in turn. It returns each
// phase's slices and the /metrics scrapes before the first measured
// slice and after the last.
func (s *session) measure(warm *phase, ps []*phase) (map[string]*phaseAcc, prom, prom, error) {
	accs := map[string]*phaseAcc{"warmup": {p: warm}}
	if _, _, err := s.runSlice(accs["warmup"], warm); err != nil {
		return nil, nil, nil, err
	}
	for _, p := range ps {
		accs[p.name] = &phaseAcc{p: p}
	}
	rounds, _ := slicing(s.cfg.shape.phase)
	var first, final prom
	for k := range rounds {
		for _, p := range ps {
			a := accs[p.name]
			before, after, err := s.runSlice(a, p.slice(k, rounds, a.sent()))
			if err != nil {
				return nil, nil, nil, err
			}
			if first == nil {
				first = before
			}
			final = after
		}
	}
	return accs, first, final, nil
}

// guards rejects a run that measured something other than the
// workload: a late generator, an open loop that did not deliver its
// schedule, or server errors the workload cannot explain.
func guards(ps []*phase, accs map[string]*phaseAcc, stats map[string]latencySummary, final prom) error {
	var bad []string
	for _, p := range ps {
		if !p.open {
			continue
		}
		if l := stats[p.name].late99; l > maxLate {
			bad = append(bad, fmt.Sprintf("%s: generator 99th-percentile lateness %.2f ms > %.1f ms", p.name, l, maxLate))
		}
		if ok := accs[p.name].ok(); float64(ok) < minDelivery*float64(len(p.due)) {
			bad = append(bad, fmt.Sprintf("%s: %d of %d scheduled requests answered correctly (< %.0f%%)", p.name, ok, len(p.due), 100*minDelivery))
		}
	}
	for _, name := range []string{"eccserve_internal_errors_total", "eccserve_bad_requests_total"} {
		if v := final[name]; v != 0 {
			bad = append(bad, fmt.Sprintf("server reports %s = %v; the workload sends no request that explains it", name, v))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%w:\n  %s", errRunInvalid, strings.Join(bad, "\n  "))
	}
	return nil
}

var errRunInvalid = errors.New("run invalid")

// layers is the traced run's per-layer leg: the wire spans, the
// in-process replay of the busy schedule, the layer ladder, the kernel
// at the replay's batch size, the server's own counters and the M0+
// breakdown. It returns the replay.
func layers(cfg config, t traffic, accs map[string]*phaseAcc, stats map[string]latencySummary,
	first, final prom, shards shardConfig, m0 *m0Result, m metrics, w io.Writer) (*replayResult, error) {
	tr := newTracer()
	for _, name := range []string{"light", "busy.traced"} {
		for _, s := range accs[name].slices {
			tr.wireSpans(s, runtime.NumCPU())
		}
	}
	if fl, ok := t.(*certFleet); ok {
		if err := fl.seedLRU(cfg.seed); err != nil {
			return nil, err
		}
	}
	rp, err := replay(t, accs["busy"].p, shards, runtime.NumCPU(), tr)
	if err != nil {
		return nil, err
	}
	if n, first := rp.acc.failed(); n > 0 {
		fmt.Fprintf(w, "bench: replay: %d wrong answers, first: %v\n", n, first)
	}
	lf, err := newLadderFix(cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := runLadder(lf, cfg.shape.ladder, m, tr); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	kb := max(1, int(math.Round(rp.batchMean)))
	kt, err := measure(kernelProbe(lf, cfg.workload, kb), cfg.shape.ladder/10)
	if err != nil {
		return nil, fmt.Errorf("kernel at batch %d: %w", kb, err)
	}
	kernelUS := kt.nsPerOp / 1e3
	serverCPU := cpuPerOp(accs["busy"])

	hits := delta(first, final, "eccserve_keycache_hits_total")
	misses := delta(first, final, "eccserve_keycache_misses_total")
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	sat := accs["sat"]
	m.set("engine.replay_p50_ms", "ms", rp.lat.p50)
	m.set("engine.replay_cpu_us_per_op", "us", rp.cpuPerOp)
	m.set("engine.replay_batch_mean", "count", rp.batchMean)
	m.set("engine.replay_kernel_us_per_op", "us", kernelUS)
	m.set("eccserve.batch_mean.light", "count", accs["light"].batchMean())
	m.set("eccserve.batch_mean.busy", "count", accs["busy"].batchMean())
	m.set("eccserve.batch_mean.sat", "count", sat.batchMean())
	m.set("eccserve.keycache_hit_ratio", "ratio", hitRatio)
	m.set("eccserve.keycache_builds", "count", delta(first, final, "eccserve_keycache_builds_total"))
	m.set("eccserve.keycache_evictions", "count", delta(first, final, "eccserve_keycache_evictions_total"))
	m.set("eccserve.extractions", "count", delta(first, final, "eccserve_extractions_total"))
	m.set("eccserve.shed", "count", delta(first, final, "eccserve_shed_total"))
	m.set("eccserve.verify_invalid", "count", delta(first, final, "eccserve_verify_invalid_total"))
	m.set("eccserve.residual_cpu_us_per_op", "us", serverCPU-rp.cpuPerOp)
	m.set("eccserve.residual_p50_ms", "ms", stats["busy"].p50-rp.lat.p50)
	m.set("throughput_rps", "req/s", throughput(sat))
	m.set("light.p99_ms", "ms", stats["light"].p99)
	m.set("busy.p99_ms", "ms", stats["busy"].p99)
	m.set("sat.p99_ms", "ms", stats["sat"].p99)
	late := 0.0
	for _, name := range []string{"light", "busy", "busy.traced"} {
		late = max(late, stats[name].late99)
	}
	m.set("gen.late_p99_ms", "ms", late)
	m.set("gen.client_cpu_us_per_op", "us", float64(sat.self)/1e3/float64(max(sat.ok(), 1)))
	m.set("frame.bytes_per_op", "bytes", frameBytes(t, accs["busy"].p))
	m.set("trace.overhead_ratio", "ratio", stats["busy.traced"].p50/stats["busy"].p50)
	m.set("m0.setup_s", "s", m0.setup.Seconds())
	m.set("codegen.mul_cycles", "cycles", float64(m0.costs.MulCycles))
	m.set("codegen.sqr_cycles", "cycles", float64(m0.costs.SqrCycles))
	m.set("profile.inv_cycles", "cycles", float64(m0.costs.InvCycles))
	for _, ph := range []struct {
		name   string
		kp, kg uint64
	}{
		{"tnaf_repr", m0.kp.TNAFRepr, m0.kg.TNAFRepr},
		{"tnaf_pre", m0.kp.TNAFPre, 0},
		{"multiply", m0.kp.Multiply, m0.kg.Multiply},
		{"mul_pre", m0.kp.MulPre, m0.kg.MulPre},
		{"square", m0.kp.Square, m0.kg.Square},
		{"inversion", m0.kp.Inversion, m0.kg.Inversion},
		{"support", m0.kp.Support, m0.kg.Support},
	} {
		m.set("profile.kp."+ph.name, "cycles", m0.mean(ph.kp))
		if ph.name != "tnaf_pre" { // kG's table is built offline: always 0
			m.set("profile.kg."+ph.name, "cycles", m0.mean(ph.kg))
		}
	}

	path := filepath.Join(cfg.work, "trace-"+cfg.workload+".json")
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	reportTrace(w, cfg.workload, tr, stats["busy"], rp, serverCPU, kb, kernelUS, path)
	return rp, nil
}

// frameBytes is the mean request plus answer size on the wire over a
// phase's requests, frame headers included.
func frameBytes(t traffic, p *phase) float64 {
	const header = 4 + 8 + 1 // length, id, type
	answer := map[byte]int{
		frame.TVerifyR: 1, frame.TCertVerify: 1, frame.TSign: frame.SigSize, frame.TECDH: frame.SecretSize,
	}
	var total int
	var segs [][]byte
	for _, q := range p.reqs {
		typ, s := t.encode(q, segs[:0])
		for _, b := range s {
			total += len(b)
		}
		total += 2*header + answer[typ]
	}
	return float64(total) / float64(max(len(p.reqs), 1))
}
