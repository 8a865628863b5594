package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompareVerdicts feeds -compare two synthetic record sets with one
// metric per verdict and checks each row and the exit decision.
func TestCompareVerdicts(t *testing.T) {
	sp := &spec{
		Workloads: []specWorkload{{Name: "w"}},
		EndToEnd: []specMetric{
			{Name: "tput", Unit: "req/s", Better: "higher", Bound: 0.1},
			{Name: "cpu", Unit: "us", Better: "lower", Bound: 0.1},
			{Name: "p50", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "p99", Unit: "ms", Better: "lower", Bound: 0.1},
		},
	}
	dir := t.TempDir()
	write := func(side string, seed int, vals map[string]float64) {
		writeRecord(t, filepath.Join(dir, side), "w", seed, true, vals)
	}
	for i := range 6 {
		jitter := float64(i%3) * 0.002
		write("parent", i, map[string]float64{"tput": 1000 * (1 + jitter), "cpu": 40 * (1 + jitter), "p50": 1.2 * (1 + jitter), "p99": 3 + float64(i)})
		write("change", i, map[string]float64{"tput": 1200 * (1 + jitter), "cpu": 48 * (1 + jitter), "p50": 1.203 * (1 + jitter), "p99": 3 + float64(i)})
	}
	var out bytes.Buffer
	regressed, err := compareMain(sp, []string{filepath.Join(dir, "parent"), filepath.Join(dir, "change")}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Errorf("a 20%% CPU regression against a 10%% bound did not fail the comparison:\n%s", out.String())
	}
	for metric, want := range map[string]string{"tput": "improved", "cpu": "regressed", "p50": "unchanged", "p99": "unresolved"} {
		row := regexp.MustCompile(`(?m)^w\s+` + metric + `\s.*\s(\w+)$`).FindStringSubmatch(out.String())
		if row == nil || row[1] != want {
			t.Errorf("%s: verdict %v, want %s\n%s", metric, row, want, out.String())
		}
	}

	// The same sets named file by file, as a shell glob passes them.
	files, _ := filepath.Glob(filepath.Join(dir, "parent", "*.json"))
	more, _ := filepath.Glob(filepath.Join(dir, "change", "*.json"))
	var again bytes.Buffer
	if _, err := compareMain(sp, append(files, more...), &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), out.Bytes()) {
		t.Errorf("files and directories compare differently:\n%s\n%s", again.String(), out.String())
	}
}

// writeRecord writes one run's -out record with the given metric values
// into dir.
func writeRecord(t *testing.T, dir, workload string, seed int, correct bool, vals map[string]float64) {
	t.Helper()
	m := metrics{}
	for name, v := range vals {
		m.set(name, "ms", v)
	}
	b, _ := json.Marshal(outcome{Workload: workload, Seed: int64(seed), result: result{Correct: correct, Metrics: m}})
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", workload, seed)), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompareFailedRunsRegress: runs that failed on the change side
// leave no record or a record with wrong answers, and each way fails
// the comparison even where every metric that is there is unchanged.
func TestCompareFailedRunsRegress(t *testing.T) {
	sp := &spec{
		Workloads: []specWorkload{{Name: "a"}, {Name: "b"}},
		EndToEnd: []specMetric{
			{Name: "p50", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "p99", Unit: "ms", Better: "lower", Bound: 0.1},
		},
	}
	both := map[string]float64{"p50": 1, "p99": 3}
	for _, c := range []struct {
		name   string
		change func(dir string) // writes the change side
		want   string           // in the output
	}{
		{"workload missing", func(dir string) {
			for i := range 4 {
				writeRecord(t, dir, "a", i, true, both)
			}
		}, "(0 untraced runs on the change side, 4 on the parent side)"},
		{"runs missing", func(dir string) {
			for i := range 4 {
				writeRecord(t, dir, "a", i, true, both)
				if i < 3 {
					writeRecord(t, dir, "b", i, true, both)
				}
			}
		}, "(3 untraced runs on the change side, 4 on the parent side)"},
		{"metric missing", func(dir string) {
			for i := range 4 {
				writeRecord(t, dir, "a", i, true, both)
				writeRecord(t, dir, "b", i, true, map[string]float64{"p50": 1})
			}
		}, "p99             missing on the change side"},
		{"wrong answers", func(dir string) {
			for i := range 4 {
				writeRecord(t, dir, "a", i, true, both)
				writeRecord(t, dir, "b", i, i != 2, both)
			}
		}, "(seed 2 answered wrongly on the change side)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for i := range 4 {
				writeRecord(t, filepath.Join(dir, "parent"), "a", i, true, both)
				writeRecord(t, filepath.Join(dir, "parent"), "b", i, true, both)
			}
			c.change(filepath.Join(dir, "change"))
			var out bytes.Buffer
			regressed, err := compareMain(sp, []string{filepath.Join(dir, "parent"), filepath.Join(dir, "change")}, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !regressed || !bytes.Contains(out.Bytes(), []byte(c.want+"  regressed")) {
				t.Errorf("regressed = %v, want true with %q:\n%s", regressed, c.want, out.String())
			}
		})
	}
}
