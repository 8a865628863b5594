package main

import (
	"crypto/rand"
	"errors"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/frame"
)

// serverConfig carries the tunables from flag parsing (and from the
// integration tests, which construct servers directly).
type serverConfig struct {
	Shards       int           // engine shards; 0 = GOMAXPROCS
	MaxBatch     int           // per-shard batch ceiling
	Window       time.Duration // bound on a batch's collect (0 = greedy only)
	MaxInflight  int           // concurrent requests before shedding
	MaxConns     int           // accepted-connection cap; 0 = unlimited
	KeyCacheCap  int           // resident w=10 tables; the key tier holds keyTierRatio× as many keys
	DrainTimeout time.Duration // bound on waiting for in-flight work
	ReadIdle     time.Duration // per-connection read idle timeout; 0 = none
	WriteTimeout time.Duration // per-flush write deadline; 0 = none
	ConstTime    bool          // hardened signing/ECDH (constant-time evaluators)
	Quiet        bool          // suppress per-connection logging
}

func (c *serverConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Window < 0 {
		c.Window = 0
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * c.Shards * c.MaxBatch
	}
	if c.MaxConns < 0 {
		c.MaxConns = 0
	}
	if c.KeyCacheCap <= 0 {
		c.KeyCacheCap = 1024
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.ReadIdle < 0 {
		c.ReadIdle = 0
	}
	if c.WriteTimeout < 0 {
		c.WriteTimeout = 0
	}
}

// server multiplexes framed clients onto per-core batch-engine shards.
//
// Concurrency shape: per connection, one reader goroutine and one
// writer goroutine (frame.Conn's queued writer); one short-lived
// goroutine per request, which decodes it, resolves its key (a cache
// miss may wait on a build) and submits it; one single-worker
// BatchEngine per shard. A connection is pinned to a shard for its
// lifetime so one client's burst coalesces into that shard's batches
// instead of scattering across all of them. The shard worker answers
// a batch from its completion callbacks, queueing every answer on its
// connection without blocking, so each connection's writer sends all
// the answers one batch produced for it in one write. A request holds
// its inflight slot until its answer is flushed (or has failed), so a
// client that stops reading holds its own slots — queued answers stay
// bounded by -maxinflight — and never blocks a shard.
type server struct {
	cfg  serverConfig
	m    *metrics
	priv *repro.PrivateKey
	pub  []byte // the server identity, compressed
	// ca issues implicit certificates under the server key: the
	// service identity doubles as the trust anchor, so a TPing gives
	// clients both the signature key and the extraction anchor.
	ca *repro.CA

	shards []*repro.BatchEngine
	cache  *keyCache

	ln       atomic.Pointer[net.Listener]
	inflight chan struct{} // semaphore; acquired non-blocking, full = shed

	draining atomic.Bool
	// reqMu orders request registration against the drain: reqWG.Add
	// happens under RLock after re-checking draining, and shutdown
	// flips draining under the write lock before reqWG.Wait — so Add
	// can never race Wait (the same pattern as the engine's
	// closed-state guard).
	reqMu   sync.RWMutex
	reqWG   sync.WaitGroup // in-flight request goroutines
	connWG  sync.WaitGroup // connection reader goroutines
	connSeq atomic.Uint64

	connMu sync.Mutex
	conns  map[*frame.Conn]struct{}

	// sent is every request's response completion: once the frame is
	// flushed, or has failed, it releases the request's inflight slot
	// and drain registration. Bound once, so queueing allocates nothing
	// for it.
	sent func(error)

	stopOnce sync.Once
	stopped  chan struct{} // closed when shutdown completes
}

func newServer(priv *repro.PrivateKey, cfg serverConfig) *server {
	cfg.fill()
	m := &metrics{}
	s := &server{
		cfg:      cfg,
		m:        m,
		priv:     priv,
		pub:      priv.PublicKey().BytesCompressed(),
		ca:       repro.NewCA(priv),
		cache:    newKeyCache(cfg.KeyCacheCap, m),
		inflight: make(chan struct{}, cfg.MaxInflight),
		conns:    make(map[*frame.Conn]struct{}),
		stopped:  make(chan struct{}),
	}
	s.sent = func(error) {
		<-s.inflight
		s.m.inflight.Add(-1)
		s.reqWG.Done()
	}
	repro.Warm()
	for i := 0; i < cfg.Shards; i++ {
		opts := []repro.EngineOption{
			repro.WithWorkers(1),
			repro.WithMaxBatch(cfg.MaxBatch),
			repro.WithBatchWindow(cfg.Window),
			repro.WithBatchObserver(m.observeBatch),
			repro.WithWarmTables(false),
		}
		if cfg.ConstTime {
			opts = append(opts, repro.WithConstTime())
		}
		s.shards = append(s.shards, repro.NewBatchEngine(opts...))
	}
	publishExpvar(m)
	return s
}

// serve accepts connections on ln until shutdown closes it.
func (s *server) serve(ln net.Listener) {
	s.ln.Store(&ln)
	if s.draining.Load() {
		// shutdown won the race with serve ever starting.
		ln.Close()
		return
	}
	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			// Listener closed by shutdown: the accept loop is done.
			if s.draining.Load() {
				return
			}
			// Transient accept errors recover on their own; retry under
			// a capped exponential backoff so a persistent condition
			// does not spin the loop hot.
			if retryableAccept(err) {
				backoff = min(max(2*backoff, time.Millisecond), time.Second)
				if !s.cfg.Quiet {
					log.Printf("eccserve: accept: %v (retrying in %v)", err, backoff)
				}
				time.Sleep(backoff)
				continue
			}
			// Permanent: the listener is gone for good. A server that
			// cannot accept must not linger as a zombie — engine shards
			// spinning, metrics green, no way in — so the error is a
			// drain: shut down fully and let the supervisor restart us.
			if !s.cfg.Quiet {
				log.Printf("eccserve: accept: %v (shutting down)", err)
			}
			s.shutdown()
			return
		}
		backoff = 0
		fc := frame.NewConn(nc)
		fc.SetReadIdleTimeout(s.cfg.ReadIdle)
		fc.SetWriteTimeout(s.cfg.WriteTimeout)
		s.connMu.Lock()
		if s.draining.Load() {
			// Accepted in the window between ln.Close and this check;
			// registering now could race connWG.Wait in shutdown.
			s.connMu.Unlock()
			fc.Close()
			continue
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			// At the connection cap: reject at the handshake with an
			// explicit overload frame (id 0 — this is a connection-level
			// verdict, there is no request to correlate it to), distinct
			// from per-request inflight shedding so clients and dashboards
			// can tell "too many conns" from "too many requests".
			s.connMu.Unlock()
			s.m.connsRejected.Add(1)
			go rejectConn(fc)
			continue
		}
		s.conns[fc] = struct{}{}
		s.connWG.Add(1)
		s.connMu.Unlock()
		s.m.conns.Add(1)
		go s.handleConn(fc)
	}
}

// rejectConn tells a capped-out client why it is being dropped and
// closes the connection. Runs off the accept loop so a client that
// does not drain its socket cannot stall accepts; the write deadline
// bounds the goroutine's lifetime.
func rejectConn(fc *frame.Conn) {
	fc.SetWriteTimeout(time.Second)
	fc.Write(0, frame.TOverload)
	fc.Close()
}

// retryableAccept classifies an Accept error as transient. Timeouts
// announce themselves through net.Error, but the other recoverable
// conditions do not: FD exhaustion (EMFILE/ENFILE — the table drains
// as established connections close) and connections aborted by the
// peer between SYN and accept(2) (ECONNABORTED) surface as plain
// syscall errnos with Timeout() == false, and treating them as
// permanent would turn a momentary FD spike into a full drain that
// drops every established connection.
func retryableAccept(err error) bool {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return true
	}
	return errors.Is(err, syscall.EMFILE) ||
		errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ECONNABORTED)
}

// handleConn owns the read side of one connection and fans requests
// out to per-request goroutines. The connection is pinned to one shard
// for its lifetime, and every response leaves through its queued
// writer.
func (s *server) handleConn(fc *frame.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, fc)
		s.connMu.Unlock()
		s.m.conns.Add(-1)
		fc.Close()
	}()
	fc.StartWriter(s.m.observeFlush, func(err error) { s.noteWriteErr(fc, err) })
	// A shed or draining answer holds no inflight slot, so the reader
	// waits for its flush before reading on: a client that sends
	// without reading can make the server buffer at most -maxinflight
	// answers and one refusal.
	refused := make(chan struct{}, 1)
	refusedSent := func(error) { refused <- struct{}{} }
	refuse := func(id uint64, typ byte) {
		fc.Queue(refusedSent, id, typ)
		<-refused
	}
	shard := s.shards[s.connSeq.Add(1)%uint64(len(s.shards))]
	for {
		f, err := fc.Read()
		if err != nil {
			s.noteReadErr(fc, err)
			return
		}
		select {
		case s.inflight <- struct{}{}:
		default:
			// At capacity: shed rather than queue unboundedly. The
			// client sees an explicit overload frame it can back off on.
			s.m.shed.Add(1)
			refuse(f.ID, frame.TOverload)
			continue
		}
		s.reqMu.RLock()
		if s.draining.Load() {
			s.reqMu.RUnlock()
			<-s.inflight
			s.m.drained.Add(1)
			refuse(f.ID, frame.TDraining)
			continue
		}
		s.reqWG.Add(1)
		s.reqMu.RUnlock()
		s.m.inflight.Add(1)
		// The frame payload aliases the connection read buffer; copy it
		// before the reader loops around to the next frame.
		payload := append([]byte(nil), f.Payload...)
		go s.process(fc, shard, f.ID, f.Type, payload)
	}
}

// isTimeout reports whether err carries a net.Error deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// noteReadErr classifies the error that ended a connection's read
// loop. EOF and ErrClosed are the ordinary ways a connection ends
// (peer hangup, our own shutdown or a write-side close) and count
// nothing; a deadline expiry is the read-idle timeout firing; anything
// else is a transport fault. Only this connection is affected either
// way — the listener keeps accepting.
func (s *server) noteReadErr(fc *frame.Conn, err error) {
	switch {
	case err == io.EOF || errors.Is(err, net.ErrClosed):
	case isTimeout(err):
		s.m.connTimeouts.Add(1)
		if !s.cfg.Quiet {
			log.Printf("eccserve: %v: read idle timeout", fc.RemoteAddr())
		}
	default:
		s.m.connErrors.Add(1)
		if !s.cfg.Quiet {
			log.Printf("eccserve: %v: read: %v", fc.RemoteAddr(), err)
		}
	}
}

// noteWriteErr classifies the error that broke a connection's response
// stream, which its writer reports once: a deadline expiry means a
// stalled peer held a flush past WriteTimeout, ErrClosed means our own
// close came first, and anything else is a transport fault. Either way
// the stream can no longer be framed, so the connection is closed —
// which also unblocks its reader. Requests already submitted to a
// shard complete, and their answers fail to queue: a stalled client
// costs its own connection, never the shard.
func (s *server) noteWriteErr(fc *frame.Conn, err error) {
	switch {
	case errors.Is(err, net.ErrClosed):
	case isTimeout(err):
		s.m.connTimeouts.Add(1)
		if !s.cfg.Quiet {
			log.Printf("eccserve: %v: write timeout", fc.RemoteAddr())
		}
	default:
		s.m.connErrors.Add(1)
		if !s.cfg.Quiet {
			log.Printf("eccserve: %v: write: %v", fc.RemoteAddr(), err)
		}
	}
	fc.Close()
}

// Verification answers, shared by every response that carries one.
var (
	valid   = []byte{1}
	invalid = []byte{0}
)

// answer queues a request's response frame. Its flush completion,
// s.sent, releases the request's inflight slot and drain registration.
func (s *server) answer(fc *frame.Conn, id uint64, typ byte, segs ...[]byte) {
	fc.Queue(s.sent, id, typ, segs...)
}

func (s *server) badRequest(fc *frame.Conn, id uint64) {
	s.m.badRequest.Add(1)
	s.answer(fc, id, frame.TBadRequest)
}

// verdict answers a verification.
func (s *server) verdict(fc *frame.Conn, id uint64, ok bool, err error) {
	switch {
	case err != nil:
		s.answerErr(fc, id, err)
	case ok:
		s.answer(fc, id, frame.TOK, valid)
	default:
		s.m.verifyFail.Add(1)
		s.answer(fc, id, frame.TOK, invalid)
	}
}

// process decodes one request, resolves its key (which may wait on a
// build) and submits it to the connection's shard. The engine callback
// answers from the shard worker, right after the batch, so a batch's
// answers reach each connection's writer together; process itself
// answers only what never reaches the engine. Every path queues
// exactly one response. Each operation has its own method, which keeps
// every frame on this short-lived goroutine's path small: the key
// lookup then runs without growing the goroutine's starting stack.
func (s *server) process(fc *frame.Conn, shard *repro.BatchEngine, id uint64, typ byte, payload []byte) {
	switch typ {
	case frame.TPing:
		s.m.reqPing.Add(1)
		s.answer(fc, id, frame.TOK, s.pub)
	case frame.TSign:
		s.m.reqSign.Add(1)
		s.sign(fc, shard, id, payload)
	case frame.TVerify:
		s.m.reqVerify.Add(1)
		s.verify(fc, shard, id, payload)
	case frame.TVerifyR:
		s.m.reqVerifyR.Add(1)
		s.verifyR(fc, shard, id, payload)
	case frame.TECDH:
		s.m.reqECDH.Add(1)
		s.ecdh(fc, shard, id, payload)
	case frame.TEnroll:
		s.m.reqEnroll.Add(1)
		s.enroll(fc, shard, id, payload)
	case frame.TCertVerify:
		s.m.reqCertVerify.Add(1)
		s.certVerify(fc, shard, id, payload)
	default:
		s.badRequest(fc, id)
	}
}

func (s *server) sign(fc *frame.Conn, shard *repro.BatchEngine, id uint64, digest []byte) {
	if len(digest) == 0 || len(digest) > frame.MaxDigest {
		s.badRequest(fc, id)
		return
	}
	err := shard.SignAsync(s.priv, digest, rand.Reader, func(sig *repro.Signature, err error) {
		if err != nil {
			s.answerErr(fc, id, err)
			return
		}
		s.answer(fc, id, frame.TOK, sig.Bytes())
	})
	if err != nil {
		s.answerErr(fc, id, err)
	}
}

func (s *server) verify(fc *frame.Conn, shard *repro.BatchEngine, id uint64, payload []byte) {
	key, rawSig, digest, ok := frame.SplitVerify(payload)
	if !ok {
		s.badRequest(fc, id)
		return
	}
	pub, err := s.cache.getKey(key)
	if err != nil {
		s.badRequest(fc, id)
		return
	}
	sig, err := repro.ParseSignature(rawSig)
	if err != nil {
		// Structurally framed but cryptographically malformed: that is
		// a verification answer (invalid), not a protocol error.
		s.verdict(fc, id, false, nil)
		return
	}
	err = shard.VerifyKeyAsync(pub, digest, sig, func(ok bool, err error) { s.verdict(fc, id, ok, err) })
	if err != nil {
		s.answerErr(fc, id, err)
	}
}

func (s *server) verifyR(fc *frame.Conn, shard *repro.BatchEngine, id uint64, payload []byte) {
	hint, key, rawSig, digest, ok := frame.SplitVerifyR(payload)
	if !ok {
		s.badRequest(fc, id)
		return
	}
	pub, err := s.cache.getKey(key)
	if err != nil {
		s.badRequest(fc, id)
		return
	}
	sig, err := repro.ParseSignature(rawSig)
	if err != nil {
		s.verdict(fc, id, false, nil)
		return
	}
	err = shard.VerifyKeyRecoverableAsync(pub, digest, sig, hint, func(ok bool, err error) { s.verdict(fc, id, ok, err) })
	if err != nil {
		s.answerErr(fc, id, err)
	}
}

func (s *server) ecdh(fc *frame.Conn, shard *repro.BatchEngine, id uint64, payload []byte) {
	if len(payload) != frame.KeySize {
		s.badRequest(fc, id)
		return
	}
	peer, err := repro.NewPublicKey(payload)
	if err != nil {
		s.badRequest(fc, id)
		return
	}
	err = shard.SharedSecretKeyAsync(s.priv, peer, func(secret []byte, err error) {
		if err != nil {
			s.answerErr(fc, id, err)
			return
		}
		s.answer(fc, id, frame.TOK, secret)
	})
	if err != nil {
		s.answerErr(fc, id, err)
	}
}

func (s *server) enroll(fc *frame.Conn, shard *repro.BatchEngine, id uint64, payload []byte) {
	reqPoint, identity, ok := frame.SplitEnroll(payload)
	if !ok {
		s.badRequest(fc, id)
		return
	}
	cert, contrib, err := s.ca.Issue(reqPoint, identity, rand.Reader)
	if err != nil {
		// Issue fails only on invalid input (request point or identity)
		// or an RNG fault; the former dominates and the latter still is
		// not an engine-lifecycle condition.
		s.badRequest(fc, id)
		return
	}
	// Extract the certified key through the shard kernel and warm the
	// key tier under both namespaces: TCertVerify hits the
	// cert-namespace name, and a client presenting the extracted key
	// directly to TVerify hits the key-namespace alias. The key earns a
	// table only by use.
	pub, err := shard.ExtractPublicKey(cert, s.ca.PublicKey())
	if err != nil {
		s.answerErr(fc, id, err)
		return
	}
	s.m.extractions.Add(1)
	certBytes := cert.Bytes()
	s.cache.put(pub, certCacheKey(certBytes, identity), keyCacheKey(pub.BytesCompressed()))
	s.m.enrollments.Add(1)
	s.answer(fc, id, frame.TOK, certBytes, contrib)
}

func (s *server) certVerify(fc *frame.Conn, shard *repro.BatchEngine, id uint64, payload []byte) {
	certBytes, identity, rawSig, digest, ok := frame.SplitCertVerify(payload)
	if !ok {
		s.badRequest(fc, id)
		return
	}
	pub, err := s.cache.getCert(certBytes, identity, func() (*repro.PublicKey, error) {
		cert, err := repro.ParseCert(certBytes, identity)
		if err != nil {
			return nil, err
		}
		pub, err := shard.ExtractPublicKey(cert, s.ca.PublicKey())
		if err != nil {
			return nil, err
		}
		s.m.extractions.Add(1)
		return pub, nil
	})
	if err != nil {
		if errors.Is(err, repro.ErrEngineClosed) {
			s.answerErr(fc, id, err)
			return
		}
		// Malformed or forged certificate: a protocol-level reject, same
		// contract as an unparseable key in TVerify.
		s.badRequest(fc, id)
		return
	}
	sig, err := repro.ParseSignature(rawSig)
	if err != nil {
		s.verdict(fc, id, false, nil)
		return
	}
	err = shard.VerifyKeyAsync(pub, digest, sig, func(ok bool, err error) { s.verdict(fc, id, ok, err) })
	if err != nil {
		s.answerErr(fc, id, err)
	}
}

// answerErr maps an engine failure to a response frame. A closed
// engine means shutdown won the race with this request — tell the
// client to reconnect elsewhere rather than reporting a server fault.
func (s *server) answerErr(fc *frame.Conn, id uint64, err error) {
	if errors.Is(err, repro.ErrEngineClosed) {
		s.m.drained.Add(1)
		s.answer(fc, id, frame.TDraining)
		return
	}
	s.m.internalErr.Add(1)
	if !s.cfg.Quiet {
		log.Printf("eccserve: request %d: %v", id, err)
	}
	s.answer(fc, id, frame.TInternal)
}

// shutdown drains the server: stop accepting, answer new frames with
// TDraining, wait (bounded) for in-flight requests, close the engine
// shards, then tear down the connections. Idempotent; concurrent
// callers block until the first drain completes.
func (s *server) shutdown() {
	first := false
	s.stopOnce.Do(func() { first = true })
	if !first {
		<-s.stopped
		return
	}
	s.reqMu.Lock()
	s.draining.Store(true)
	s.reqMu.Unlock()
	s.m.draining.Store(1)
	if ln := s.ln.Load(); ln != nil {
		(*ln).Close()
	}

	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		if !s.cfg.Quiet {
			log.Printf("eccserve: drain timeout after %v, abandoning in-flight requests", s.cfg.DrainTimeout)
		}
	}

	// Safe even with stragglers: a submit racing Close gets
	// ErrEngineClosed back, which answerErr turns into TDraining.
	for _, sh := range s.shards {
		sh.Close()
	}

	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.connWG.Wait()
	close(s.stopped)
}
