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
	Window       time.Duration // adaptive batch window (0 = greedy only)
	MaxInflight  int           // concurrent requests before shedding
	MaxConns     int           // accepted-connection cap; 0 = unlimited
	KeyCacheCap  int           // resident w=10 tables; the key tier holds keyTierRatio× as many keys
	DrainTimeout time.Duration // bound on waiting for in-flight work
	ReadIdle     time.Duration // per-connection read idle timeout; 0 = none
	WriteTimeout time.Duration // per-response write deadline; 0 = none
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
// Concurrency shape: one reader goroutine per connection, one
// goroutine per in-flight request (bounded by the inflight semaphore),
// one single-worker BatchEngine per shard. A connection is pinned to a
// shard for its lifetime so one client's burst coalesces into that
// shard's batches instead of scattering across all of them.
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
// for its lifetime.
func (s *server) handleConn(fc *frame.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, fc)
		s.connMu.Unlock()
		s.m.conns.Add(-1)
		fc.Close()
	}()
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
			s.write(fc, f.ID, frame.TOverload)
			continue
		}
		s.reqMu.RLock()
		if s.draining.Load() {
			s.reqMu.RUnlock()
			<-s.inflight
			s.m.drained.Add(1)
			s.write(fc, f.ID, frame.TDraining)
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

// write sends a response frame and classifies any failure: a deadline
// expiry means a stalled peer held the write past WriteTimeout, any
// other fresh error is a transport fault, and either way the stream
// can no longer be framed so the connection is closed — which also
// unblocks its reader. ErrWriteBroken repeats a failure that was
// already classified when the stream first broke, and ErrClosed means
// the close already happened; neither counts again. Requests already
// submitted to a shard complete and simply fail their writes here: a
// stalled client costs its own connection, never the shard.
func (s *server) write(fc *frame.Conn, id uint64, typ byte, segs ...[]byte) {
	err := fc.Write(id, typ, segs...)
	if err == nil {
		return
	}
	switch {
	case errors.Is(err, frame.ErrWriteBroken) || errors.Is(err, net.ErrClosed):
	case isTimeout(err):
		s.m.connTimeouts.Add(1)
		if !s.cfg.Quiet {
			log.Printf("eccserve: %v: write timeout (request %d)", fc.RemoteAddr(), id)
		}
	default:
		s.m.connErrors.Add(1)
		if !s.cfg.Quiet {
			log.Printf("eccserve: %v: write: %v", fc.RemoteAddr(), err)
		}
	}
	fc.Close()
}

// process executes one request against the connection's shard and
// writes the response frame.
func (s *server) process(fc *frame.Conn, shard *repro.BatchEngine, id uint64, typ byte, payload []byte) {
	defer func() {
		<-s.inflight
		s.m.inflight.Add(-1)
		s.reqWG.Done()
	}()
	switch typ {
	case frame.TPing:
		s.m.reqPing.Add(1)
		s.write(fc, id, frame.TOK, s.pub)

	case frame.TSign:
		s.m.reqSign.Add(1)
		if len(payload) == 0 || len(payload) > frame.MaxDigest {
			s.m.badRequest.Add(1)
			s.write(fc, id, frame.TBadRequest)
			return
		}
		sig, err := shard.Sign(s.priv, payload, rand.Reader)
		if err != nil {
			s.writeErr(fc, id, err)
			return
		}
		s.write(fc, id, frame.TOK, sig.Bytes())

	case frame.TVerify:
		s.m.reqVerify.Add(1)
		key, rawSig, digest, ok := frame.SplitVerify(payload)
		if !ok {
			s.m.badRequest.Add(1)
			s.write(fc, id, frame.TBadRequest)
			return
		}
		pub, err := s.cache.getKey(key)
		if err != nil {
			s.m.badRequest.Add(1)
			s.write(fc, id, frame.TBadRequest)
			return
		}
		sig, err := repro.ParseSignature(rawSig)
		if err != nil {
			// Structurally framed but cryptographically malformed: that
			// is a verification answer (invalid), not a protocol error.
			s.m.verifyFail.Add(1)
			s.write(fc, id, frame.TOK, []byte{0})
			return
		}
		valid, err := shard.VerifyKey(pub, digest, sig)
		if err != nil {
			s.writeErr(fc, id, err)
			return
		}
		if valid {
			s.write(fc, id, frame.TOK, []byte{1})
		} else {
			s.m.verifyFail.Add(1)
			s.write(fc, id, frame.TOK, []byte{0})
		}

	case frame.TVerifyR:
		s.m.reqVerifyR.Add(1)
		hint, key, rawSig, digest, ok := frame.SplitVerifyR(payload)
		if !ok {
			s.m.badRequest.Add(1)
			s.write(fc, id, frame.TBadRequest)
			return
		}
		pub, err := s.cache.getKey(key)
		if err != nil {
			s.m.badRequest.Add(1)
			s.write(fc, id, frame.TBadRequest)
			return
		}
		sig, err := repro.ParseSignature(rawSig)
		if err != nil {
			s.m.verifyFail.Add(1)
			s.write(fc, id, frame.TOK, []byte{0})
			return
		}
		valid, err := shard.VerifyKeyRecoverable(pub, digest, sig, hint)
		if err != nil {
			s.writeErr(fc, id, err)
			return
		}
		if valid {
			s.write(fc, id, frame.TOK, []byte{1})
		} else {
			s.m.verifyFail.Add(1)
			s.write(fc, id, frame.TOK, []byte{0})
		}

	case frame.TECDH:
		s.m.reqECDH.Add(1)
		if len(payload) != frame.KeySize {
			s.m.badRequest.Add(1)
			s.write(fc, id, frame.TBadRequest)
			return
		}
		peer, err := repro.NewPublicKey(payload)
		if err != nil {
			s.m.badRequest.Add(1)
			s.write(fc, id, frame.TBadRequest)
			return
		}
		secret, err := shard.SharedSecretKey(s.priv, peer)
		if err != nil {
			s.writeErr(fc, id, err)
			return
		}
		s.write(fc, id, frame.TOK, secret)

	case frame.TEnroll:
		s.m.reqEnroll.Add(1)
		reqPoint, identity, ok := frame.SplitEnroll(payload)
		if !ok {
			s.m.badRequest.Add(1)
			s.write(fc, id, frame.TBadRequest)
			return
		}
		cert, contrib, err := s.ca.Issue(reqPoint, identity, rand.Reader)
		if err != nil {
			// Issue fails only on invalid input (request point or
			// identity) or an RNG fault; the former dominates and the
			// latter still is not an engine-lifecycle condition.
			s.m.badRequest.Add(1)
			s.write(fc, id, frame.TBadRequest)
			return
		}
		// Extract the certified key through the shard kernel and warm
		// the key tier under both namespaces: TCertVerify hits the
		// cert-namespace name, and a client presenting the extracted
		// key directly to TVerify hits the key-namespace alias. The
		// key earns a table only by use.
		pub, err := shard.ExtractPublicKey(cert, s.ca.PublicKey())
		if err != nil {
			s.writeErr(fc, id, err)
			return
		}
		s.m.extractions.Add(1)
		certBytes := cert.Bytes()
		s.cache.put(pub, certCacheKey(certBytes, identity), keyCacheKey(pub.BytesCompressed()))
		s.m.enrollments.Add(1)
		s.write(fc, id, frame.TOK, certBytes, contrib)

	case frame.TCertVerify:
		s.m.reqCertVerify.Add(1)
		certBytes, identity, rawSig, digest, ok := frame.SplitCertVerify(payload)
		if !ok {
			s.m.badRequest.Add(1)
			s.write(fc, id, frame.TBadRequest)
			return
		}
		pub, err := s.cache.get(certCacheKey(certBytes, identity), func() (*repro.PublicKey, error) {
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
				s.writeErr(fc, id, err)
				return
			}
			// Malformed or forged certificate: a protocol-level reject,
			// same contract as an unparseable key in TVerify.
			s.m.badRequest.Add(1)
			s.write(fc, id, frame.TBadRequest)
			return
		}
		sig, err := repro.ParseSignature(rawSig)
		if err != nil {
			s.m.verifyFail.Add(1)
			s.write(fc, id, frame.TOK, []byte{0})
			return
		}
		valid, err := shard.VerifyKey(pub, digest, sig)
		if err != nil {
			s.writeErr(fc, id, err)
			return
		}
		if valid {
			s.write(fc, id, frame.TOK, []byte{1})
		} else {
			s.m.verifyFail.Add(1)
			s.write(fc, id, frame.TOK, []byte{0})
		}

	default:
		s.m.badRequest.Add(1)
		s.write(fc, id, frame.TBadRequest)
	}
}

// writeErr maps an engine failure to a response frame. A closed engine
// means shutdown won the race with this request — tell the client to
// reconnect elsewhere rather than reporting a server fault.
func (s *server) writeErr(fc *frame.Conn, id uint64, err error) {
	if errors.Is(err, repro.ErrEngineClosed) {
		s.m.drained.Add(1)
		s.write(fc, id, frame.TDraining)
		return
	}
	s.m.internalErr.Add(1)
	if !s.cfg.Quiet {
		log.Printf("eccserve: request %d: %v", id, err)
	}
	s.write(fc, id, frame.TInternal)
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
	// ErrEngineClosed back, which writeErr turns into TDraining.
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
