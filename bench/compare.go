package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// recordSet is the -out records of one side of a comparison.
type recordSet struct {
	name string
	runs map[string][]outcome // by workload, untraced runs only
}

// loadSets groups the arguments into record sets by directory, in order
// of first appearance: an argument is a directory of records, or a
// record file belonging to its directory's set. So
//
//	bench -compare parent/*.json change/*.json
//
// and bench -compare parent change compare the same two sets.
func loadSets(args []string) ([]*recordSet, error) {
	var sets []*recordSet
	byDir := map[string]*recordSet{}
	add := func(dir, file string) error {
		b, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		var o outcome
		if err := json.Unmarshal(b, &o); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		s := byDir[dir]
		if s == nil {
			s = &recordSet{name: dir, runs: map[string][]outcome{}}
			byDir[dir] = s
			sets = append(sets, s)
		}
		if !o.Trace {
			s.runs[o.Workload] = append(s.runs[o.Workload], o)
		}
		return nil
	}
	for _, a := range args {
		fi, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			if err := add(filepath.Dir(a), a); err != nil {
				return nil, err
			}
			continue
		}
		files, err := filepath.Glob(filepath.Join(a, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(files)
		for _, f := range files {
			if err := add(a, f); err != nil {
				return nil, err
			}
		}
	}
	return sets, nil
}

// quartiles are the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// side summarises one metric's runs on one side.
type side struct {
	n           int
	med, q1, q3 float64
	spread      float64 // (q3 − q1) / median
	xs          []float64
	bySeed      map[int64]float64
}

func summarise(runs []outcome, metric string) (side, bool) {
	var xs []float64
	s := side{bySeed: map[int64]float64{}}
	for _, o := range runs {
		if v, ok := o.Metrics[metric]; ok {
			xs = append(xs, v.Value)
			s.bySeed[o.Seed] = v.Value
		}
	}
	if len(xs) == 0 {
		return s, false
	}
	s.n, s.med, s.xs = len(xs), median(xs), xs
	s.q1, s.q3 = quartiles(xs)
	if s.med != 0 {
		s.spread = (s.q3 - s.q1) / math.Abs(s.med)
	}
	return s, true
}

// judge compares one metric across the two sides:
//   - regressed: the change's median is worse than the parent's by
//     more than the bound;
//   - unresolved: otherwise, either side's spread exceeds the bound,
//     unless every change run beats every parent run;
//   - improved: the change's median is better by more than the
//     parent's interquartile distance and the change wins at least
//     nine tenths of the runs paired by seed (by rank where seeds
//     differ);
//   - unchanged: anything else.
func judge(m specMetric, p, c side) string {
	sign := 1.0 // positive gain = better
	if m.Better == "lower" {
		sign = -1
	}
	gain := sign * (c.med - p.med)
	if -gain > m.Bound*math.Abs(p.med) {
		return "regressed"
	}
	pv, cv := p.xs, c.xs
	allBetter := slices.Min(cv) > slices.Max(pv)
	if m.Better == "lower" {
		allBetter = slices.Max(cv) < slices.Min(pv)
	}
	if p.spread > m.Bound || c.spread > m.Bound {
		if allBetter {
			return "improved"
		}
		return "unresolved"
	}
	wins, pairs := 0, 0
	for _, pr := range pairUp(p, c) {
		pairs++
		if sign*(pr[1]-pr[0]) > 0 {
			wins++
		}
	}
	if gain > p.q3-p.q1 && pairs > 0 && 10*wins >= 9*pairs {
		return "improved"
	}
	return "unchanged"
}

// pairUp pairs runs with equal seeds; without any, it pairs by rank of
// seed.
func pairUp(p, c side) [][2]float64 {
	var out [][2]float64
	for seed, v := range p.bySeed {
		if w, ok := c.bySeed[seed]; ok {
			out = append(out, [2]float64{v, w})
		}
	}
	if len(out) > 0 {
		return out
	}
	ps, cs := sortedSeeds(p), sortedSeeds(c)
	for i := range min(len(ps), len(cs)) {
		out = append(out, [2]float64{p.bySeed[ps[i]], c.bySeed[cs[i]]})
	}
	return out
}

func sortedSeeds(s side) []int64 {
	var seeds []int64
	for k := range s.bySeed {
		seeds = append(seeds, k)
	}
	slices.Sort(seeds)
	return seeds
}

// compareMain prints one row per workload and end-to-end metric and
// reports whether any regressed. A run that fails writes no record, so
// a workload or metric the parent has and the change lacks, fewer
// change runs than parent runs, or a change run with wrong answers
// counts as a regression too.
func compareMain(sp *spec, args []string, w io.Writer) (bool, error) {
	sets, err := loadSets(args)
	if err != nil {
		return false, err
	}
	if len(sets) != 2 {
		return false, fmt.Errorf("-compare needs two record sets, PARENT and CHANGE (got %d)", len(sets))
	}
	p, c := sets[0], sets[1]
	fmt.Fprintf(w, "parent: %s\nchange: %s\n", p.name, c.name)
	fmt.Fprintf(w, "%-11s %-15s %3s %-40s %3s %-40s %8s %6s  %s\n",
		"workload", "metric", "n", "parent median [q1, q3] spread", "n", "change median [q1, q3] spread", "delta", "bound", "verdict")
	regressed := false
	fail := func(wl, what string) {
		fmt.Fprintf(w, "%-11s %s  regressed\n", wl, what)
		regressed = true
	}
	for _, wl := range sp.Workloads {
		pr, cr := p.runs[wl.Name], c.runs[wl.Name]
		if len(cr) < len(pr) {
			fail(wl.Name, fmt.Sprintf("(%d untraced runs on the change side, %d on the parent side)", len(cr), len(pr)))
		}
		if wrong := slices.IndexFunc(cr, func(o outcome) bool { return !o.Correct }); wrong >= 0 {
			fail(wl.Name, fmt.Sprintf("(seed %d answered wrongly on the change side)", cr[wrong].Seed))
		}
		if len(pr) == 0 || len(cr) == 0 {
			if len(pr) == 0 {
				fmt.Fprintf(w, "%-11s (no untraced runs on the parent side)\n", wl.Name)
			}
			continue
		}
		for _, m := range sp.EndToEnd {
			ps, ok1 := summarise(pr, m.Name)
			cs, ok2 := summarise(cr, m.Name)
			if ok1 && !ok2 {
				fail(wl.Name, fmt.Sprintf("%-15s missing on the change side", m.Name))
				continue
			}
			if !ok1 {
				fmt.Fprintf(w, "%-11s %-15s missing on the parent side\n", wl.Name, m.Name)
				continue
			}
			v := judge(m, ps, cs)
			regressed = regressed || v == "regressed"
			d := 0.0
			if ps.med != 0 {
				d = (cs.med - ps.med) / math.Abs(ps.med)
			}
			fmt.Fprintf(w, "%-11s %-15s %3d %-40s %3d %-40s %+7.2f%% %5.1f%%  %s\n",
				wl.Name, m.Name, ps.n, fmtSide(ps), cs.n, fmtSide(cs), 100*d, 100*m.Bound, v)
		}
	}
	return regressed, nil
}

func fmtSide(s side) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %.1f%%", s.med, s.q1, s.q3, 100*s.spread)
}
