// Command eccserve is a sect233k1 sign/verify/ECDH service over the
// length-prefixed binary protocol in internal/frame. It multiplexes
// any number of clients onto per-core batch-engine shards so that
// independent requests share the batch verifier's joint τNAF ladders
// and the field layer's Montgomery-trick inversions — the paper's
// throughput story, lifted from a CLI harness to a network daemon.
//
// Operational behaviour:
//
//   - Batching: after taking what is queued, a shard collects: it
//     yields so that request goroutines ready to run can submit, and
//     takes what they queued. The batch closes once a quiet gap (the
//     longer of 20µs and the shard's previous batch run time per
//     request) passes with no new request, at -batch requests, or
//     once -window has passed since it opened. No timer is involved:
//     a lone request waits the quiet gap, not the window (light-load
//     median 0.18–0.29 ms on the benchmark's workloads), and the window
//     only caps the collect while requests keep arriving. The shard answers each batch from its
//     completion, and each connection's writer sends the answers that
//     have accumulated in one write.
//   - Load shedding: at most -maxinflight requests run at once;
//     beyond that clients get an explicit TOverload frame instead of
//     unbounded queueing.
//   - Two-tier key cache: every parsed or extracted verification key
//     stays resident (an LRU of 16 × -keycache keys, singleflight
//     built), and at most -keycache of them hold a w=10 verification
//     table, built once a key's decayed use count reaches the table's
//     break-even of ~5 verifications and, with every slot taken, beats
//     the least recently used table's count by as much.
//   - Graceful drain: SIGTERM/SIGINT stops accepting, answers new
//     frames with TDraining, waits up to -drain for in-flight work,
//     then exits 0.
//   - Connection robustness: -read-idle closes connections whose peer
//     goes silent, -write-timeout bounds each flush of queued
//     responses so a stalled reader cannot wedge its connection, and
//     -max-conns rejects connections beyond the cap with a TOverload
//     handshake frame (distinct from per-request shedding). Timeouts
//     and faults close only the offending connection, never the
//     listener.
//   - Chaos mode: -fault-rate injects seeded, replayable connection
//     faults (resets, stalls, partial and torn writes) into accepted
//     connections via internal/fault — a self-test mode for the
//     robustness machinery; -fault-seed replays a specific run.
//   - Observability: -metrics serves Prometheus-text /metrics, expvar
//     /debug/vars and the pprof suite.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crypto/rand"

	"repro"
	"repro/internal/fault"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9233", "listen address for the frame protocol")
		addrFile = flag.String("addr-file", "", "write the bound listen address to this file (for -addr with port 0)")
		metrics  = flag.String("metrics", "", "listen address for /metrics, /debug/vars and /debug/pprof (empty = disabled)")
		shards   = flag.Int("shards", 0, "engine shards (0 = GOMAXPROCS)")
		batch    = flag.Int("batch", 32, "max requests per engine batch")
		window   = flag.Duration("window", 200*time.Microsecond, "batch window: the longest a batch keeps collecting while requests keep arriving; a batch closes sooner once no new request arrives for the longer of 20µs and the previous batch's run time per request (0 = take only what is queued)")
		maxInfl  = flag.Int("maxinflight", 0, "max concurrent requests before shedding (0 = 4*shards*batch)")
		cacheCap = flag.Int("keycache", 1024, fmt.Sprintf("resident w=10 verification tables; the key cache holds %d× as many parsed keys", keyTierRatio))
		keyFile  = flag.String("key", "", "hex-encoded private key file (empty = ephemeral key)")
		drain    = flag.Duration("drain", 5*time.Second, "max time to wait for in-flight requests on shutdown")
		readIdle = flag.Duration("read-idle", 2*time.Minute, "close a connection whose peer sends nothing for this long (0 = never)")
		writeTO  = flag.Duration("write-timeout", 10*time.Second, "write deadline per flush of queued responses; a peer that stops reading is disconnected (0 = never)")
		maxConns = flag.Int("max-conns", 0, "max accepted connections; beyond the cap new connections get a TOverload handshake reject (0 = unlimited)")
		faultPct = flag.Float64("fault-rate", 0, "chaos mode: per-call probability of injecting a connection fault (0 = off)")
		faultSd  = flag.Int64("fault-seed", 1, "chaos mode: PRNG seed, same seed replays the same fault sequence")
		cTime    = flag.Bool("const-time", false, "hardened mode: run signing and ECDH on the constant-time evaluators (<=3x sign cost, identical outputs)")
	)
	flag.Parse()
	log.SetFlags(0)

	priv, err := loadKey(*keyFile)
	if err != nil {
		log.Fatalf("eccserve: %v", err)
	}

	s := newServer(priv, serverConfig{
		Shards:       *shards,
		MaxBatch:     *batch,
		Window:       *window,
		MaxInflight:  *maxInfl,
		MaxConns:     *maxConns,
		KeyCacheCap:  *cacheCap,
		DrainTimeout: *drain,
		ReadIdle:     *readIdle,
		WriteTimeout: *writeTO,
		ConstTime:    *cTime,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("eccserve: listen: %v", err)
	}
	var faultCtr *fault.Counters
	if *faultPct > 0 {
		ln, faultCtr = chaosListener(ln, *faultPct, *faultSd, s.m)
		log.Printf("eccserve: chaos mode: fault rate %.3g, seed %d", *faultPct, *faultSd)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatalf("eccserve: addr-file: %v", err)
		}
	}
	log.Printf("eccserve: listening on %s (%d shards, batch %d, window %v)",
		ln.Addr(), s.cfg.Shards, s.cfg.MaxBatch, s.cfg.Window)
	if *cTime {
		log.Printf("eccserve: hardened mode: signing and ECDH on the constant-time evaluators")
	}

	if *metrics != "" {
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatalf("eccserve: metrics listen: %v", err)
		}
		log.Printf("eccserve: metrics on http://%s/metrics", mln.Addr())
		go func() {
			if err := http.Serve(mln, metricsMux(s.m)); err != nil {
				log.Printf("eccserve: metrics server: %v", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigc
		log.Printf("eccserve: %v: draining", sig)
		s.shutdown()
	}()

	s.serve(ln)
	// serve returns once the listener closes; wait for the drain to
	// finish before exiting so in-flight responses get flushed.
	s.shutdown()
	if faultCtr != nil {
		log.Printf("eccserve: chaos: injected %d faults (%s)", faultCtr.Total(), faultCtr)
	}
	log.Printf("eccserve: drained, bye")
}

// chaosListener wraps ln in the fault-injection layer: every accepted
// connection gets its own seeded plan (seed+index, so connections
// draw independent but replayable fault sequences), accepts draw from
// the same rate, and every injection is mirrored into the server's
// faults_injected metric so a chaos run can reconcile injected faults
// against observed connection errors.
func chaosListener(ln net.Listener, rate float64, seed int64, m *metrics) (net.Listener, *fault.Counters) {
	mix := fault.Mix{
		PartialRead:  rate,
		PartialWrite: rate,
		Reset:        rate,
		ReadStall:    rate,
		WriteStall:   rate,
		TornWrite:    rate,
		Stall:        3 * time.Second,
	}
	ctr := &fault.Counters{OnInject: func(fault.Kind) { m.faultsInjected.Add(1) }}
	fl := fault.WrapListener(ln,
		func(conn int) fault.Plan { return fault.NewSeeded(seed+int64(conn), mix) },
		fault.NewSeeded(seed, fault.Mix{AcceptError: rate}),
		ctr)
	return fl, ctr
}

// loadKey reads a hex-encoded private scalar from path, or generates
// an ephemeral key when path is empty.
func loadKey(path string) (*repro.PrivateKey, error) {
	if path == "" {
		return repro.GenerateKey(rand.Reader)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	raw, err := hex.DecodeString(strings.TrimSpace(string(b)))
	if err != nil {
		return nil, err
	}
	return repro.NewPrivateKey(raw)
}
