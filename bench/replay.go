package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/frame"
)

// shardConfig is the server's engine layout, as its start-up log line
// reports it.
type shardConfig struct {
	shards, batch int
	window        time.Duration
}

// replayResult is a schedule replayed in process on engine shards laid
// out like the server's.
type replayResult struct {
	acc       *phaseAcc // the replay in one-second windows of due time
	lat       latencySummary
	cpuPerOp  float64 // µs of this process's CPU per request
	batchMean float64
}

func opName(typ byte) string {
	switch typ {
	case frame.TVerifyR:
		return "verifyr"
	case frame.TCertVerify:
		return "certverify"
	case frame.TSign:
		return "sign"
	case frame.TECDH:
		return "ecdh"
	case frame.TEnroll:
		return "enroll"
	}
	return fmt.Sprintf("op%#x", typ)
}

// replay issues p's schedule straight into the public engine: one
// goroutine per request, as the server runs them, on the shard the
// server pins the request's connection to (the k-th accepted
// connection, counting from 1, goes to shard k mod shards). What the
// wire path costs beyond this is the serving residual.
func replay(t traffic, p *phase, cfg shardConfig, nconn int, tr *tracer) (*replayResult, error) {
	repro.Warm()
	var batches, ops atomic.Int64
	engines := make([]*repro.BatchEngine, cfg.shards)
	for i := range engines {
		engines[i] = repro.NewBatchEngine(
			repro.WithWorkers(1),
			repro.WithMaxBatch(cfg.batch),
			repro.WithBatchWindow(cfg.window),
			repro.WithBatchObserver(func(n int) { batches.Add(1); ops.Add(int64(n)) }),
			repro.WithWarmTables(false))
		defer engines[i].Close()
	}

	n := len(p.due)
	run := &phaseRun{p: p, recs: make([]rec, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	cpu0 := selfCPU()
	run.epoch = time.Now()
	for i := range n {
		sleepUntil(run.epoch, p.due[i])
		r := &run.recs[i]
		r.due = p.due[i]
		r.sent = int64(time.Since(run.epoch))
		r.wend = r.sent
		shard := engines[(i%nconn+1)%cfg.shards]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := t.replay(p.reqs[i], shard)
			run.recs[i].recv = int64(time.Since(run.epoch))
			run.recs[i].ok = err == nil
			errs[i] = err
		}(i)
	}
	wg.Wait()
	cpu := selfCPU() - cpu0
	for _, err := range errs {
		if err != nil {
			run.fail(err)
		}
	}
	if tr != nil {
		off := tr.at(run.epoch)
		for i, r := range run.recs {
			s := (i%nconn + 1) % cfg.shards
			tr.add("engine."+opName(p.reqs[i].typ), 0, laneShard+s, off+r.sent, off+r.recv)
		}
		for s := range cfg.shards {
			tr.lanes[laneShard+s] = fmt.Sprintf("replay shard %d", s)
		}
	}
	acc := windows(run)
	res := &replayResult{acc: acc, lat: summarize(acc), cpuPerOp: float64(cpu) / 1e3 / float64(max(n, 1))}
	if b := batches.Load(); b > 0 {
		res.batchMean = float64(ops.Load()) / float64(b)
	}
	return res, nil
}

// windows splits a contiguous run into one-second slices of due time,
// so its figures are medians over windows like the wire phases'.
func windows(run *phaseRun) *phaseAcc {
	n, d := slicing(run.p.dur)
	acc := &phaseAcc{p: run.p}
	for k := range n {
		acc.slices = append(acc.slices, &phaseRun{p: &phase{name: run.p.name, dur: d}, epoch: run.epoch.Add(time.Duration(k) * d)})
	}
	for _, r := range run.recs {
		k := min(int(r.due/int64(d)), n-1)
		off := int64(k) * int64(d)
		s := acc.slices[k]
		s.recs = append(s.recs, rec{due: r.due - off, sent: r.sent - off, wend: r.wend - off, recv: r.recv - off, ok: r.ok})
	}
	acc.slices[0].failed, acc.slices[0].first = run.failed, run.first
	return acc
}
