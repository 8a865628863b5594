package main

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// metrics is the server's observability state: plain atomics bumped on
// the hot paths, exported two ways from the metrics listener — as a
// Prometheus-text dump on /metrics and as an expvar tree on
// /debug/vars (next to the Go runtime's own vars and the pprof
// handlers). Everything here must be safe to bump from many
// goroutines; nothing here may block.
type metrics struct {
	reqPing       atomic.Int64
	reqSign       atomic.Int64
	reqVerify     atomic.Int64
	reqVerifyR    atomic.Int64
	reqECDH       atomic.Int64
	reqEnroll     atomic.Int64
	reqCertVerify atomic.Int64

	enrollments atomic.Int64 // certificates issued (successful TEnroll)
	extractions atomic.Int64 // public keys extracted from certificates

	badRequest  atomic.Int64
	shed        atomic.Int64 // load-shed with TOverload
	drained     atomic.Int64 // refused with TDraining
	internalErr atomic.Int64
	verifyFail  atomic.Int64 // well-formed verifies that answered "invalid"

	connTimeouts   atomic.Int64 // conns closed on a read-idle or write deadline
	connsRejected  atomic.Int64 // conns refused at the -max-conns cap
	connErrors     atomic.Int64 // conns closed on a transport fault
	faultsInjected atomic.Int64 // chaos-mode faults injected (internal/fault)

	batches   atomic.Int64
	batchOps  atomic.Int64
	batchHist [len(batchBuckets) + 1]atomic.Int64

	// Response writes: frames flushed, and the writes that carried them.
	respFrames atomic.Int64
	respWrites atomic.Int64

	// Key tier: lookups, key parses/extractions, LRU evictions.
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheBuilds    atomic.Int64
	cacheEvicts    atomic.Int64
	cacheWaitFails atomic.Int64 // waiters whose joined in-flight build failed

	// Table tier: the admission decision.
	tables        atomic.Int64 // resident w=10 tables (gauge)
	tableBuilds   atomic.Int64
	tableEvicts   atomic.Int64 // displaced, or gone with their key
	tableDeclines atomic.Int64 // admissions lost to the victim comparison

	inflight atomic.Int64
	conns    atomic.Int64
	draining atomic.Int64 // 0/1 gauge
}

// batchBuckets are the upper bounds of the batch-size histogram
// buckets (a final +Inf bucket is implicit). Powers of two because
// MaxBatch defaults are powers of two and "did batches form at all"
// is a bucket-1-versus-rest question.
var batchBuckets = [...]int{1, 2, 4, 8, 16, 32, 64, 128}

// observeBatch is the engine's WithBatchObserver hook.
func (m *metrics) observeBatch(n int) {
	m.batches.Add(1)
	m.batchOps.Add(int64(n))
	for i, ub := range batchBuckets {
		if n <= ub {
			m.batchHist[i].Add(1)
			return
		}
	}
	m.batchHist[len(batchBuckets)].Add(1)
}

// observeFlush is the connection writers' flush hook.
func (m *metrics) observeFlush(frames int) {
	m.respWrites.Add(1)
	m.respFrames.Add(int64(frames))
}

// writeProm dumps the Prometheus text exposition format.
func (m *metrics) writeProm(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP eccserve_requests_total Requests received by operation.\n# TYPE eccserve_requests_total counter\n")
	fmt.Fprintf(w, "eccserve_requests_total{op=\"ping\"} %d\n", m.reqPing.Load())
	fmt.Fprintf(w, "eccserve_requests_total{op=\"sign\"} %d\n", m.reqSign.Load())
	fmt.Fprintf(w, "eccserve_requests_total{op=\"verify\"} %d\n", m.reqVerify.Load())
	fmt.Fprintf(w, "eccserve_requests_total{op=\"verifyr\"} %d\n", m.reqVerifyR.Load())
	fmt.Fprintf(w, "eccserve_requests_total{op=\"ecdh\"} %d\n", m.reqECDH.Load())
	fmt.Fprintf(w, "eccserve_requests_total{op=\"enroll\"} %d\n", m.reqEnroll.Load())
	fmt.Fprintf(w, "eccserve_requests_total{op=\"certverify\"} %d\n", m.reqCertVerify.Load())
	counter("eccserve_enrollments_total", "Implicit certificates issued.", m.enrollments.Load())
	counter("eccserve_extractions_total", "Public keys extracted from implicit certificates.", m.extractions.Load())
	counter("eccserve_bad_requests_total", "Malformed requests answered TBadRequest.", m.badRequest.Load())
	counter("eccserve_shed_total", "Requests load-shed with TOverload.", m.shed.Load())
	counter("eccserve_drained_total", "Requests refused with TDraining during shutdown.", m.drained.Load())
	counter("eccserve_internal_errors_total", "Requests failed inside the server.", m.internalErr.Load())
	counter("eccserve_verify_invalid_total", "Well-formed verifications that answered invalid.", m.verifyFail.Load())
	counter("eccserve_conn_timeouts_total", "Connections closed on a read-idle or write deadline.", m.connTimeouts.Load())
	counter("eccserve_conns_rejected_total", "Connections refused at the max-conns cap.", m.connsRejected.Load())
	counter("eccserve_conn_errors_total", "Connections closed on a transport fault.", m.connErrors.Load())
	counter("eccserve_faults_injected_total", "Chaos-mode faults injected into accepted connections.", m.faultsInjected.Load())
	counter("eccserve_batches_total", "Engine batches processed.", m.batches.Load())
	fmt.Fprintf(w, "# HELP eccserve_batch_size Engine batch size distribution.\n# TYPE eccserve_batch_size histogram\n")
	cum := int64(0)
	for i, ub := range batchBuckets {
		cum += m.batchHist[i].Load()
		fmt.Fprintf(w, "eccserve_batch_size_bucket{le=\"%d\"} %d\n", ub, cum)
	}
	cum += m.batchHist[len(batchBuckets)].Load()
	fmt.Fprintf(w, "eccserve_batch_size_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "eccserve_batch_size_sum %d\n", m.batchOps.Load())
	fmt.Fprintf(w, "eccserve_batch_size_count %d\n", m.batches.Load())
	counter("eccserve_response_frames_total", "Response frames flushed to clients.", m.respFrames.Load())
	counter("eccserve_response_writes_total", "Socket writes that carried response frames; frames per write is the coalescing.", m.respWrites.Load())
	counter("eccserve_keycache_hits_total", "Key-tier lookups that found the key resident.", m.cacheHits.Load())
	counter("eccserve_keycache_misses_total", "Key-tier lookups that had to parse or extract the key.", m.cacheMisses.Load())
	counter("eccserve_keycache_builds_total", "Keys parsed or extracted into the key tier (singleflight-deduplicated).", m.cacheBuilds.Load())
	counter("eccserve_keycache_evictions_total", "Keys evicted from the key tier, each with any table it held.", m.cacheEvicts.Load())
	counter("eccserve_keycache_wait_failures_total", "Lookups that joined an in-flight key build which then failed.", m.cacheWaitFails.Load())
	gauge("eccserve_keycache_tables", "Verification tables resident in the table tier.", m.tables.Load())
	counter("eccserve_keycache_table_builds_total", "Verification tables built for keys whose use count cleared the admission bar.", m.tableBuilds.Load())
	counter("eccserve_keycache_table_evictions_total", "Verification tables dropped, displaced by an admission or evicted with their key.", m.tableEvicts.Load())
	counter("eccserve_keycache_table_declines_total", "Table admissions declined because the key's use count did not beat the displaced table's.", m.tableDeclines.Load())
	gauge("eccserve_inflight_requests", "Requests currently in flight.", m.inflight.Load())
	gauge("eccserve_open_connections", "Open client connections.", m.conns.Load())
	gauge("eccserve_draining", "1 while the server is draining.", m.draining.Load())
}

// snapshot renders the same numbers as a flat map for expvar.
func (m *metrics) snapshot() map[string]int64 {
	out := map[string]int64{
		"requests_ping":            m.reqPing.Load(),
		"requests_sign":            m.reqSign.Load(),
		"requests_verify":          m.reqVerify.Load(),
		"requests_verifyr":         m.reqVerifyR.Load(),
		"requests_ecdh":            m.reqECDH.Load(),
		"requests_enroll":          m.reqEnroll.Load(),
		"requests_certverify":      m.reqCertVerify.Load(),
		"enrollments":              m.enrollments.Load(),
		"extractions":              m.extractions.Load(),
		"bad_requests":             m.badRequest.Load(),
		"shed":                     m.shed.Load(),
		"drained":                  m.drained.Load(),
		"internal_errors":          m.internalErr.Load(),
		"verify_invalid":           m.verifyFail.Load(),
		"conn_timeouts":            m.connTimeouts.Load(),
		"conns_rejected":           m.connsRejected.Load(),
		"conn_errors":              m.connErrors.Load(),
		"faults_injected":          m.faultsInjected.Load(),
		"batches":                  m.batches.Load(),
		"batch_ops":                m.batchOps.Load(),
		"response_frames":          m.respFrames.Load(),
		"response_writes":          m.respWrites.Load(),
		"keycache_hits":            m.cacheHits.Load(),
		"keycache_misses":          m.cacheMisses.Load(),
		"keycache_builds":          m.cacheBuilds.Load(),
		"keycache_evictions":       m.cacheEvicts.Load(),
		"keycache_wait_failures":   m.cacheWaitFails.Load(),
		"keycache_tables":          m.tables.Load(),
		"keycache_table_builds":    m.tableBuilds.Load(),
		"keycache_table_evictions": m.tableEvicts.Load(),
		"keycache_table_declines":  m.tableDeclines.Load(),
		"inflight_requests":        m.inflight.Load(),
		"open_connections":         m.conns.Load(),
		"draining":                 m.draining.Load(),
	}
	for i, ub := range batchBuckets {
		out[fmt.Sprintf("batch_size_le_%d", ub)] = m.batchHist[i].Load()
	}
	out["batch_size_le_inf"] = m.batchHist[len(batchBuckets)].Load()
	return out
}

// activeMetrics is what the process-global expvar publication reads:
// expvar.Publish panics on duplicate names, so the name is published
// once and always reflects the most recently constructed server
// (tests construct several per process).
var (
	activeMetrics atomic.Pointer[metrics]
	publishOnce   sync.Once
)

func publishExpvar(m *metrics) {
	activeMetrics.Store(m)
	publishOnce.Do(func() {
		expvar.Publish("eccserve", expvar.Func(func() any {
			if mm := activeMetrics.Load(); mm != nil {
				return mm.snapshot()
			}
			return nil
		}))
	})
}

// metricsMux builds the observability handler: Prometheus text on
// /metrics, the expvar tree on /debug/vars, and the pprof suite under
// /debug/pprof/ — wired onto a private mux so the binary never
// depends on http.DefaultServeMux.
func metricsMux(m *metrics) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m.writeProm(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
