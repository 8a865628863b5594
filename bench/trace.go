package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Spans are kept in
// memory while the run measures and written once it ends.
type span struct {
	name       string
	id, parent int64 // parent 0: a root span
	tid        int   // display lane: a connection, an engine shard or the ladder
	start, end int64 // ns from the tracer's epoch
}

// tracer records the traced run's spans, all from the benchmark's own
// side of each layer boundary.
type tracer struct {
	epoch time.Time
	spans []span
	lanes map[int]string
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), lanes: map[int]string{}} }

// at converts a time to the tracer's clock.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.epoch)) }

func (t *tracer) add(name string, parent int64, tid int, start, end int64) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{name, id, parent, tid, start, end})
	return id
}

// Display lanes.
const (
	laneConn   = 0   // + connection index
	laneShard  = 100 // + engine shard index in the in-process replay
	laneLadder = 200
)

// wireSpans records one request span per wire request, due tick to
// answer, with its frame.write and frame.await children.
func (t *tracer) wireSpans(run *phaseRun, nconn int) {
	off := t.at(run.epoch)
	for i, r := range run.recs {
		tid := laneConn + i%nconn
		id := t.add("request", 0, tid, off+r.due, off+r.recv)
		t.add("frame.write", id, tid, off+r.sent, off+r.wend)
		t.add("frame.await", id, tid, off+r.wend, off+r.recv)
	}
	for c := range nconn {
		t.lanes[laneConn+c] = fmt.Sprintf("wire conn %d", c)
	}
}

// selfTimes is each span name's count, total duration and self time:
// its duration less the part of it that its children cover.
type selfTime struct {
	name       string
	n          int
	total, own time.Duration
}

func (t *tracer) selfTimes() []selfTime {
	kids := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	agg := map[string]*selfTime{}
	var order []string
	for _, s := range t.spans {
		a := agg[s.name]
		if a == nil {
			a = &selfTime{name: s.name}
			agg[s.name] = a
			order = append(order, s.name)
		}
		a.n++
		a.total += time.Duration(s.end - s.start)
		a.own += time.Duration(s.end-s.start) - covered(kids[s.id], s.start, s.end)
	}
	out := make([]selfTime, 0, len(order))
	for _, name := range order {
		out = append(out, *agg[name])
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) time.Duration {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var sum, reach int64 = 0, lo
	for _, x := range iv {
		a, b := max(x[0], reach), min(x[1], hi)
		if b > a {
			sum += b - a
			reach = b
		}
	}
	return time.Duration(sum)
}

// write saves the spans in the Chrome trace-event format, which
// Perfetto and chrome://tracing open.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	sep := ""
	emit := func(e event) error {
		fmt.Fprint(w, sep)
		sep = ","
		return enc.Encode(e)
	}
	lanes := make([]int, 0, len(t.lanes))
	for tid := range t.lanes {
		lanes = append(lanes, tid)
	}
	sort.Ints(lanes)
	for _, tid := range lanes {
		if err := emit(event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": t.lanes[tid]}}); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range t.spans {
		e := event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid, Args: map[string]any{"span": s.id, "parent": s.parent}}
		if err := emit(e); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
