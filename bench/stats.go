package main

import (
	"math"
	"slices"
	"time"
)

// A measured phase runs as one-second slices interleaved with the other
// phases' slices, and every phase figure is taken over its slices. The
// host's speed has slow episodes lasting seconds; interleaving spreads
// each phase over the whole run. A median over slices ignores the
// slices an episode covers as long as they are fewer than half; a
// median latency, which such an episode only ever raises, is taken
// from the quietest slice, which ignores an episode covering all but
// one.

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// slicing splits a phase's duration into one-second slices; a phase
// shorter than two seconds is one slice.
func slicing(d time.Duration) (n int, length time.Duration) {
	n = max(1, int(d/time.Second))
	return n, d / time.Duration(n)
}

// phaseAcc is one phase's slices and what was measured around each.
type phaseAcc struct {
	p        *phase
	slices   []*phaseRun
	cpu      []time.Duration // server CPU per slice, from its start to its last answer
	steal    []float64       // per slice: the share of the host's CPU time the hypervisor took
	self     time.Duration   // this process's CPU over the slices
	batches  float64         // engine batches the server ran during the slices
	batchOps float64         // requests in those batches
}

func (a *phaseAcc) sent() int {
	n := 0
	for _, s := range a.slices {
		n += len(s.recs)
	}
	return n
}

func (a *phaseAcc) ok() int {
	n := 0
	for _, s := range a.slices {
		n += okCount(s)
	}
	return n
}

func (a *phaseAcc) failed() (int, error) {
	n, first := 0, error(nil)
	for _, s := range a.slices {
		if s.failed > 0 && first == nil {
			first = s.first
		}
		n += s.failed
	}
	return n, first
}

func (a *phaseAcc) batchMean() float64 {
	if a.batches == 0 {
		return 0
	}
	return a.batchOps / a.batches
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail is the highest percentile, at most the 99th, with at least
// minBeyond of the sorted samples beyond it; it returns the value and
// the percentile used. Fewer than minBeyond+1 samples give the maximum.
func tail(xs []float64) (float64, float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	i := int(math.Ceil(0.99*float64(n))) - 1
	i = min(i, n-1-minBeyond)
	if i < 0 {
		return xs[n-1], 1
	}
	return xs[i], float64(i+1) / float64(n)
}

// latencySummary is a phase's latency, each request timed from when it
// was due.
type latencySummary struct {
	p50s   []float64 // ms: each slice's median
	p50    float64   // ms: the least of p50s
	p99    float64   // ms: median of the slices' tails
	p99q   float64   // the percentile the tails used (0.99 when the sample allows)
	perWin int       // median samples per slice
	late99 float64   // ms: median of the slices' 99th-percentile write lateness
}

// summarize computes a phase's latency figures. A failed request counts
// as infinitely slow, so it misses any latency limit.
func summarize(a *phaseAcc) latencySummary {
	var p50s, tails, qs, counts, lates []float64
	for _, s := range a.slices {
		if len(s.recs) == 0 {
			continue
		}
		lat, late := make([]float64, 0, len(s.recs)), make([]float64, 0, len(s.recs))
		for _, r := range s.recs {
			l := float64(r.recv-r.due) / 1e6
			if !r.ok {
				l = math.Inf(1)
			}
			lat, late = append(lat, l), append(late, float64(r.sent-r.due)/1e6)
		}
		slices.Sort(lat)
		slices.Sort(late)
		v, q := tail(lat)
		p50s = append(p50s, quantile(lat, 0.5))
		tails, qs = append(tails, v), append(qs, q)
		counts = append(counts, float64(len(lat)))
		lates = append(lates, quantile(late, 0.99))
	}
	least := math.NaN()
	if len(p50s) > 0 {
		least = slices.Min(p50s)
	}
	return latencySummary{p50s: p50s, p50: least, p99: median(tails), p99q: median(qs), perWin: int(median(counts)), late99: median(lates)}
}

// throughput is the median over slices of correct answers per second
// that arrived within the slice.
func throughput(a *phaseAcc) float64 {
	var xs []float64
	for _, s := range a.slices {
		n := 0
		for _, r := range s.recs {
			if r.ok && r.recv <= int64(s.p.dur) {
				n++
			}
		}
		xs = append(xs, float64(n)*float64(time.Second)/float64(s.p.dur))
	}
	return median(xs)
}

// cpuPerOp is the median over slices of server CPU µs per correct
// answer.
func cpuPerOp(a *phaseAcc) float64 {
	var xs []float64
	for i, s := range a.slices {
		if n := okCount(s); n > 0 {
			xs = append(xs, float64(a.cpu[i])/1e3/float64(n))
		}
	}
	return median(xs)
}

func okCount(run *phaseRun) int {
	n := 0
	for _, r := range run.recs {
		if r.ok {
			n++
		}
	}
	return n
}
