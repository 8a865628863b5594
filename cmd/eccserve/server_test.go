package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/frame"
)

// startTestServer boots a server on a loopback port and returns it
// with its address. The server is drained at test end.
func startTestServer(t *testing.T, cfg serverConfig) (*server, string) {
	t.Helper()
	cfg.Quiet = true
	rnd := rand.New(rand.NewSource(233))
	priv, err := repro.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(priv, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.serve(ln)
	t.Cleanup(s.shutdown)
	return s, ln.Addr().String()
}

func dialFrame(t *testing.T, addr string) *frame.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := frame.NewConn(nc)
	t.Cleanup(func() { fc.Close() })
	return fc
}

func TestServeSignVerifyECDH(t *testing.T) {
	s, addr := startTestServer(t, serverConfig{Window: 100 * time.Microsecond})
	fc := dialFrame(t, addr)

	// Ping doubles as the identity probe.
	f, err := fc.Roundtrip(1, frame.TPing)
	if err != nil || f.Type != frame.TOK || len(f.Payload) != frame.KeySize {
		t.Fatalf("ping: type %#x len %d err %v", f.Type, len(f.Payload), err)
	}
	serverPub, err := repro.NewPublicKey(f.Payload)
	if err != nil {
		t.Fatalf("server announced an invalid public key: %v", err)
	}

	// Sign: response must verify locally against the announced key.
	digest := sha256.Sum256([]byte("eccserve"))
	f, err = fc.Roundtrip(2, frame.TSign, digest[:])
	if err != nil || f.Type != frame.TOK || len(f.Payload) != frame.SigSize {
		t.Fatalf("sign: type %#x len %d err %v", f.Type, len(f.Payload), err)
	}
	sig, err := repro.ParseSignature(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !serverPub.Verify(digest[:], sig) {
		t.Fatal("server signature does not verify against its announced key")
	}

	// Verify: a client-side signature round-trips as valid...
	rnd := rand.New(rand.NewSource(7))
	clientPriv, err := repro.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	clientKey := clientPriv.PublicKey().BytesCompressed()
	clientSig, err := repro.SignDeterministic(clientPriv, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	req := frame.AppendVerify(nil, clientKey, clientSig.Bytes(), digest[:])
	f, err = fc.Roundtrip(3, frame.TVerify, req)
	if err != nil || f.Type != frame.TOK || !bytes.Equal(f.Payload, []byte{1}) {
		t.Fatalf("verify valid: type %#x payload %v err %v", f.Type, f.Payload, err)
	}
	// ...the same signature over a different digest is invalid...
	other := sha256.Sum256([]byte("other"))
	req = frame.AppendVerify(nil, clientKey, clientSig.Bytes(), other[:])
	f, err = fc.Roundtrip(4, frame.TVerify, req)
	if err != nil || f.Type != frame.TOK || !bytes.Equal(f.Payload, []byte{0}) {
		t.Fatalf("verify wrong digest: type %#x payload %v err %v", f.Type, f.Payload, err)
	}
	// ...and a cryptographically malformed signature (s = 0) answers
	// invalid, not a protocol error.
	badSig := make([]byte, frame.SigSize)
	copy(badSig, clientSig.Bytes()[:frame.SigSize/2])
	req = frame.AppendVerify(nil, clientKey, badSig, digest[:])
	f, err = fc.Roundtrip(5, frame.TVerify, req)
	if err != nil || f.Type != frame.TOK || !bytes.Equal(f.Payload, []byte{0}) {
		t.Fatalf("verify malformed sig: type %#x payload %v err %v", f.Type, f.Payload, err)
	}

	// ECDH symmetry: the client derives the same secret locally.
	f, err = fc.Roundtrip(6, frame.TECDH, clientKey)
	if err != nil || f.Type != frame.TOK || len(f.Payload) != frame.SecretSize {
		t.Fatalf("ecdh: type %#x len %d err %v", f.Type, len(f.Payload), err)
	}
	want, err := clientPriv.SharedSecret(serverPub)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, want) {
		t.Fatal("ECDH secret does not match the client-side derivation")
	}

	if s.m.reqSign.Load() == 0 || s.m.reqVerify.Load() == 0 || s.m.reqECDH.Load() == 0 {
		t.Fatal("request counters did not move")
	}
}

// TestServeVerifyRecoverable drives the hinted-verify wire path: a
// valid hinted signature answers 1, a wrong hint still answers 1 (the
// hint is an accelerator, never an input to the verdict), a corrupted
// signature answers 0, and a structurally broken payload is a protocol
// error.
func TestServeVerifyRecoverable(t *testing.T) {
	s, addr := startTestServer(t, serverConfig{Window: 100 * time.Microsecond})
	fc := dialFrame(t, addr)

	rnd := rand.New(rand.NewSource(17))
	clientPriv, err := repro.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	clientKey := clientPriv.PublicKey().BytesCompressed()
	digest := sha256.Sum256([]byte("verifyr"))
	sig, hint, err := repro.SignRecoverable(nil, clientPriv, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if hint >= repro.HintNone {
		t.Fatalf("signer produced no usable hint (%d)", hint)
	}

	req := frame.AppendVerifyR(nil, hint, clientKey, sig.Bytes(), digest[:])
	f, err := fc.Roundtrip(1, frame.TVerifyR, req)
	if err != nil || f.Type != frame.TOK || !bytes.Equal(f.Payload, []byte{1}) {
		t.Fatalf("verifyr valid: type %#x payload %v err %v", f.Type, f.Payload, err)
	}

	wrongHint := (hint + 1) % 8
	req = frame.AppendVerifyR(nil, wrongHint, clientKey, sig.Bytes(), digest[:])
	f, err = fc.Roundtrip(2, frame.TVerifyR, req)
	if err != nil || f.Type != frame.TOK || !bytes.Equal(f.Payload, []byte{1}) {
		t.Fatalf("verifyr wrong hint: type %#x payload %v err %v", f.Type, f.Payload, err)
	}

	bad := sig.Bytes()
	bad[len(bad)-1] ^= 1
	req = frame.AppendVerifyR(nil, hint, clientKey, bad, digest[:])
	f, err = fc.Roundtrip(3, frame.TVerifyR, req)
	if err != nil || f.Type != frame.TOK || !bytes.Equal(f.Payload, []byte{0}) {
		t.Fatalf("verifyr corrupted sig: type %#x payload %v err %v", f.Type, f.Payload, err)
	}

	f, err = fc.Roundtrip(4, frame.TVerifyR, []byte{hint, 1, 2})
	if err != nil || f.Type != frame.TBadRequest {
		t.Fatalf("verifyr short payload: type %#x err %v", f.Type, err)
	}

	if s.m.reqVerifyR.Load() != 4 {
		t.Fatalf("reqVerifyR = %d, want 4", s.m.reqVerifyR.Load())
	}
}

// TestServeLoneRequestsSkipWindow pins the light-load latency of the
// batch collect over the wire: with nothing else in flight, a lone
// sign and a lone hinted verify are answered once the collect goes
// quiet, not after the -window bound, here 10 s.
func TestServeLoneRequestsSkipWindow(t *testing.T) {
	_, addr := startTestServer(t, serverConfig{Window: 10 * time.Second})
	fc := dialFrame(t, addr)

	digest := sha256.Sum256([]byte("lone"))
	start := time.Now()
	f, err := fc.Roundtrip(1, frame.TSign, digest[:])
	if err != nil || f.Type != frame.TOK || len(f.Payload) != frame.SigSize {
		t.Fatalf("sign: type %#x len %d err %v", f.Type, len(f.Payload), err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("lone sign answered after %v under a 10s window", el)
	}

	clientPriv, err := repro.GenerateKey(rand.New(rand.NewSource(18)))
	if err != nil {
		t.Fatal(err)
	}
	sig, hint, err := repro.SignRecoverable(nil, clientPriv, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	req := frame.AppendVerifyR(nil, hint, clientPriv.PublicKey().BytesCompressed(), sig.Bytes(), digest[:])
	start = time.Now()
	f, err = fc.Roundtrip(2, frame.TVerifyR, req)
	if err != nil || f.Type != frame.TOK || !bytes.Equal(f.Payload, []byte{1}) {
		t.Fatalf("verifyr: type %#x payload %v err %v", f.Type, f.Payload, err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("lone hinted verify answered after %v under a 10s window", el)
	}
}

func TestServeBadRequests(t *testing.T) {
	s, addr := startTestServer(t, serverConfig{})
	fc := dialFrame(t, addr)

	digest := sha256.Sum256([]byte("x"))
	cases := []struct {
		name string
		typ  byte
		p    []byte
	}{
		{"empty sign digest", frame.TSign, nil},
		{"oversize sign digest", frame.TSign, make([]byte, frame.MaxDigest+1)},
		{"short verify", frame.TVerify, []byte{1, 2, 3}},
		{"garbage verify key", frame.TVerify, frame.AppendVerify(nil, make([]byte, frame.KeySize), make([]byte, frame.SigSize), digest[:])},
		{"short ecdh", frame.TECDH, []byte{0x02}},
		{"garbage ecdh key", frame.TECDH, make([]byte, frame.KeySize)},
		{"unknown type", 0x7f, []byte("?")},
	}
	for i, tc := range cases {
		f, err := fc.Roundtrip(uint64(i+1), tc.typ, tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if f.Type != frame.TBadRequest {
			t.Fatalf("%s: response type %#x, want TBadRequest", tc.name, f.Type)
		}
	}
	if got := s.m.badRequest.Load(); got != int64(len(cases)) {
		t.Fatalf("badRequest counter = %d, want %d", got, len(cases))
	}
}

// TestServeMixedTrafficConcurrent hammers one server with mixed
// operations from many connections and checks every response is
// well-formed and the verify answers are right.
func TestServeMixedTrafficConcurrent(t *testing.T) {
	s, addr := startTestServer(t, serverConfig{Window: 200 * time.Microsecond, Shards: 2})

	const conns = 8
	const opsPerConn = 40
	rnd := rand.New(rand.NewSource(9))
	clientPriv, err := repro.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	clientKey := clientPriv.PublicKey().BytesCompressed()

	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		fc := dialFrame(t, addr)
		wg.Add(1)
		go func(c int, fc *frame.Conn) {
			defer wg.Done()
			for i := 0; i < opsPerConn; i++ {
				id := uint64(c*opsPerConn + i + 1)
				digest := sha256.Sum256([]byte{byte(c), byte(i)})
				sig, err := repro.SignDeterministic(clientPriv, digest[:])
				if err != nil {
					t.Error(err)
					return
				}
				switch i % 3 {
				case 0:
					f, err := fc.Roundtrip(id, frame.TSign, digest[:])
					if err != nil || f.Type != frame.TOK || len(f.Payload) != frame.SigSize {
						t.Errorf("conn %d op %d sign: type %#x err %v", c, i, f.Type, err)
						return
					}
				case 1:
					req := frame.AppendVerify(nil, clientKey, sig.Bytes(), digest[:])
					f, err := fc.Roundtrip(id, frame.TVerify, req)
					if err != nil || f.Type != frame.TOK || !bytes.Equal(f.Payload, []byte{1}) {
						t.Errorf("conn %d op %d verify: type %#x payload %v err %v", c, i, f.Type, f.Payload, err)
						return
					}
				case 2:
					f, err := fc.Roundtrip(id, frame.TECDH, clientKey)
					if err != nil || f.Type != frame.TOK || len(f.Payload) != frame.SecretSize {
						t.Errorf("conn %d op %d ecdh: type %#x err %v", c, i, f.Type, err)
						return
					}
				}
			}
		}(c, fc)
	}
	wg.Wait()

	// One client key across all verifies: one key build, the rest
	// cache hits.
	if builds := s.m.cacheBuilds.Load(); builds != 1 {
		t.Fatalf("cacheBuilds = %d, want 1", builds)
	}
	if s.m.cacheHits.Load() == 0 {
		t.Fatal("no cache hits under repeated verification of one key")
	}
	if s.m.batches.Load() == 0 || s.m.batchOps.Load() == 0 {
		t.Fatal("batch observer saw nothing")
	}
}

// flakyListener injects a scripted sequence of Accept errors before
// delegating to the real listener.
type flakyListener struct {
	net.Listener
	mu   sync.Mutex
	errs []error
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if len(l.errs) > 0 {
		err := l.errs[0]
		l.errs = l.errs[1:]
		l.mu.Unlock()
		return nil, err
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

// timeoutErr is a transient (timeout-flavoured) net.Error.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "injected timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// startFlakyServer boots a server on a listener that fails its first
// Accepts with errs.
func startFlakyServer(t *testing.T, errs ...error) (*server, string) {
	t.Helper()
	rnd := rand.New(rand.NewSource(234))
	priv, err := repro.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(priv, serverConfig{Quiet: true, DrainTimeout: time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.serve(&flakyListener{Listener: ln, errs: errs})
	t.Cleanup(s.shutdown)
	return s, ln.Addr().String()
}

// TestServeTransientAcceptErrors: timeout-flavoured accept errors must
// not kill the accept loop — after a burst of them the server still
// accepts and answers.
func TestServeTransientAcceptErrors(t *testing.T) {
	_, addr := startFlakyServer(t, timeoutErr{}, timeoutErr{}, timeoutErr{})
	fc := dialFrame(t, addr)
	f, err := fc.Roundtrip(1, frame.TPing)
	if err != nil || f.Type != frame.TOK {
		t.Fatalf("ping after transient accept errors: type %#x err %v", f.Type, err)
	}
}

// TestServeErrnoAcceptErrors is the errno-classification regression:
// accept(2) surfaces FD exhaustion (EMFILE/ENFILE) and handshakes
// aborted before accept (ECONNABORTED) as plain syscall errnos whose
// net.Error Timeout() is false, which the old classifier took for a
// permanent listener failure — triggering a full drain that dropped
// every established connection during a momentary FD spike. They must
// be retried like timeouts, without shutting the server down.
func TestServeErrnoAcceptErrors(t *testing.T) {
	wrap := func(errno syscall.Errno) error {
		return &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", errno)}
	}
	s, addr := startFlakyServer(t,
		wrap(syscall.EMFILE), wrap(syscall.ENFILE), wrap(syscall.ECONNABORTED))
	fc := dialFrame(t, addr)
	f, err := fc.Roundtrip(1, frame.TPing)
	if err != nil || f.Type != frame.TOK {
		t.Fatalf("ping after errno accept errors: type %#x err %v", f.Type, err)
	}
	select {
	case <-s.stopped:
		t.Fatal("transient errno accept error triggered a full shutdown")
	default:
	}
}

// TestServePermanentAcceptErrorShutsDown is the zombie regression: a
// permanent accept failure used to return from the accept loop without
// shutting anything down, leaving engine shards running and the server
// reachable by nothing. It must now drain fully.
func TestServePermanentAcceptErrorShutsDown(t *testing.T) {
	s, _ := startFlakyServer(t, errors.New("injected permanent failure"))
	select {
	case <-s.stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down after a permanent accept error")
	}
}

// TestGracefulDrain checks shutdown mid-traffic: in-flight requests
// complete, later frames get TDraining (or the connection closes), and
// the drain terminates without panic or deadlock.
func TestGracefulDrain(t *testing.T) {
	s, addr := startTestServer(t, serverConfig{Window: 100 * time.Microsecond})
	fc := dialFrame(t, addr)
	digest := sha256.Sum256([]byte("drain"))

	// Warm the path first so the drain races real traffic.
	if f, err := fc.Roundtrip(1, frame.TSign, digest[:]); err != nil || f.Type != frame.TOK {
		t.Fatalf("pre-drain sign: type %#x err %v", f.Type, err)
	}

	drained := make(chan struct{})
	go func() {
		s.shutdown()
		close(drained)
	}()

	// Keep submitting until the server tells us it is draining or
	// hangs up; anything else must still be a well-formed response.
	sawRefusal := false
	for id := uint64(2); id < 2000; id++ {
		f, err := fc.Roundtrip(id, frame.TSign, digest[:])
		if err != nil {
			sawRefusal = true // connection torn down by the drain
			break
		}
		switch f.Type {
		case frame.TOK, frame.TOverload:
		case frame.TDraining:
			sawRefusal = true
		default:
			t.Fatalf("unexpected response type %#x during drain", f.Type)
		}
		if sawRefusal {
			break
		}
	}
	if !sawRefusal {
		t.Fatal("never observed TDraining or connection close during drain")
	}

	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
	// Idempotent from another goroutine too.
	s.shutdown()
}

// TestLoadShedding fills the inflight semaphore and checks overflow is
// answered with TOverload instead of queueing or blocking.
func TestLoadShedding(t *testing.T) {
	s, addr := startTestServer(t, serverConfig{MaxInflight: 1, MaxBatch: 1, Shards: 1})
	// Occupy the only inflight slot manually so the next request must
	// shed deterministically.
	s.inflight <- struct{}{}
	defer func() { <-s.inflight }()

	fc := dialFrame(t, addr)
	digest := sha256.Sum256([]byte("shed"))
	f, err := fc.Roundtrip(1, frame.TSign, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != frame.TOverload {
		t.Fatalf("response type %#x, want TOverload", f.Type)
	}
	if s.m.shed.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.m.shed.Load())
	}
}

func TestKeyCacheLRUAndSingleflight(t *testing.T) {
	m := &metrics{}
	c := newKeyCache(2, m) // 2 tables, so 2·keyTierRatio resident keys
	keyCap := 2 * keyTierRatio
	rnd := rand.New(rand.NewSource(11))
	var keys [][]byte
	for i := 0; i <= keyCap; i++ {
		priv, err := repro.GenerateKey(rnd)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, priv.PublicKey().BytesCompressed())
	}

	// Singleflight: 16 concurrent gets of one key build once.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.getKey(keys[0]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if builds := m.cacheBuilds.Load(); builds != 1 {
		t.Fatalf("cacheBuilds = %d, want 1", builds)
	}

	// LRU: fill the key tier, refresh key0, and the one key past
	// capacity evicts the least recently used, key1.
	for _, k := range keys[1:keyCap] {
		if _, err := c.getKey(k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.getKey(keys[0]); err != nil { // key0 now most recent
		t.Fatal(err)
	}
	if _, err := c.getKey(keys[keyCap]); err != nil { // evicts key1
		t.Fatal(err)
	}
	if c.len() != keyCap {
		t.Fatalf("cache holds %d entries, want %d", c.len(), keyCap)
	}
	if m.cacheEvicts.Load() != 1 {
		t.Fatalf("cacheEvicts = %d, want 1", m.cacheEvicts.Load())
	}
	hitsBefore := m.cacheHits.Load()
	if _, err := c.getKey(keys[0]); err != nil { // survived the eviction
		t.Fatal(err)
	}
	if m.cacheHits.Load() != hitsBefore+1 {
		t.Fatal("key0 should have survived the eviction as a hit")
	}
	missesBefore := m.cacheMisses.Load()
	if _, err := c.getKey(keys[1]); err != nil { // was evicted
		t.Fatal(err)
	}
	if m.cacheMisses.Load() != missesBefore+1 {
		t.Fatal("key1 should have been evicted and rebuilt")
	}

	// Errors are not cached.
	bad := make([]byte, frame.KeySize)
	if _, err := c.getKey(bad); err == nil {
		t.Fatal("garbage key parsed")
	}
	if c.len() != keyCap {
		t.Fatalf("failed build left a resident entry: len = %d", c.len())
	}
}

// TestKeyCacheWaiterOnFailedBuild pins the hit/miss/build/wait-failure
// accounting when a lookup joins an in-flight build that then fails:
// that waiter used to be counted as a cache hit the moment it found
// the entry, before the build had produced anything. The in-flight
// state is manufactured by hand so the build's resolution is
// deterministically ordered after the waiter joins.
func TestKeyCacheWaiterOnFailedBuild(t *testing.T) {
	m := &metrics{}
	c := newKeyCache(2, m)

	// A registered-but-unresolved entry, exactly as the initiating get
	// leaves it while the build runs outside the lock.
	raw := make([]byte, frame.KeySize)
	k := keyCacheKey(raw)
	e := &keyEntry{key: k, ready: make(chan struct{})}
	c.mu.Lock()
	c.entries[k] = e
	c.pushFront(e)
	c.mu.Unlock()

	// A second, resolved entry ahead of e makes the waiter's arrival
	// observable: get re-fronts the entry it joins.
	other := &keyEntry{key: "other", ready: make(chan struct{})}
	close(other.ready)
	c.mu.Lock()
	c.entries[other.key] = other
	c.pushFront(other)
	c.mu.Unlock()

	// The waiter joins the in-flight build and blocks on ready.
	done := make(chan error, 1)
	go func() {
		_, err := c.getKey(raw)
		done <- err
	}()
	for joined := false; !joined; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		joined = c.head.next == e
		c.mu.Unlock()
	}
	// Joined but unresolved: nothing may have been counted yet — the
	// old code booked the hit here, before the build said anything.
	if hits, wf := m.cacheHits.Load(), m.cacheWaitFails.Load(); hits != 0 || wf != 0 {
		t.Fatalf("waiter counted before the build resolved (hits=%d waitFails=%d)", hits, wf)
	}

	// The build fails; the initiator's path records the error, wakes
	// waiters, and removes the entry.
	e.err = errors.New("injected build failure")
	close(e.ready)
	c.mu.Lock()
	c.unlink(e)
	delete(c.entries, k)
	c.mu.Unlock()

	if err := <-done; err == nil {
		t.Fatal("waiter got a key from a failed build")
	}
	if hits := m.cacheHits.Load(); hits != 0 {
		t.Fatalf("cacheHits = %d after a failed build, want 0", hits)
	}
	if wf := m.cacheWaitFails.Load(); wf != 1 {
		t.Fatalf("cacheWaitFails = %d, want 1", wf)
	}

	// Sanity of the ordinary flows on the same cache: a fresh valid key
	// is one miss + one build, its re-lookup one hit.
	rnd := rand.New(rand.NewSource(13))
	priv, err := repro.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	good := priv.PublicKey().BytesCompressed()
	if _, err := c.getKey(good); err != nil {
		t.Fatal(err)
	}
	if _, err := c.getKey(good); err != nil {
		t.Fatal(err)
	}
	if m.cacheMisses.Load() != 1 || m.cacheBuilds.Load() != 1 || m.cacheHits.Load() != 1 {
		t.Fatalf("misses=%d builds=%d hits=%d, want 1/1/1",
			m.cacheMisses.Load(), m.cacheBuilds.Load(), m.cacheHits.Load())
	}
	// A direct failed build is a miss, never a hit or a wait failure.
	if _, err := c.getKey(make([]byte, frame.KeySize)); err == nil {
		t.Fatal("garbage key parsed")
	}
	if m.cacheMisses.Load() != 2 || m.cacheHits.Load() != 1 || m.cacheWaitFails.Load() != 1 {
		t.Fatalf("misses=%d hits=%d waitFails=%d after direct failed build, want 2/1/1",
			m.cacheMisses.Load(), m.cacheHits.Load(), m.cacheWaitFails.Load())
	}
}

func TestMetricsEndpoints(t *testing.T) {
	s, addr := startTestServer(t, serverConfig{})
	fc := dialFrame(t, addr)
	if _, err := fc.Roundtrip(1, frame.TPing); err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("m"))
	if _, err := fc.Roundtrip(2, frame.TSign, digest[:]); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(metricsMux(s.m))
	defer srv.Close()

	body := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		`eccserve_requests_total{op="ping"} 1`,
		`eccserve_requests_total{op="sign"} 1`,
		"eccserve_batch_size_bucket{le=\"+Inf\"}",
		"eccserve_shed_total 0",
		"eccserve_conn_timeouts_total 0",
		"eccserve_conns_rejected_total 0",
		"eccserve_conn_errors_total 0",
		"eccserve_faults_injected_total 0",
		"eccserve_keycache_tables 0",
		"eccserve_keycache_table_builds_total 0",
		"eccserve_keycache_table_evictions_total 0",
		"eccserve_keycache_table_declines_total 0",
		"# TYPE eccserve_response_frames_total counter",
		"# TYPE eccserve_response_writes_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q\n%s", want, body)
		}
	}
	vars := httpGet(t, srv.URL+"/debug/vars")
	if !strings.Contains(vars, `"eccserve"`) {
		t.Fatal("/debug/vars does not publish the eccserve tree")
	}
	for _, want := range []string{`"keycache_tables"`, `"keycache_table_builds"`, `"keycache_table_evictions"`, `"keycache_table_declines"`, `"response_frames"`, `"response_writes"`} {
		if !strings.Contains(vars, want) {
			t.Fatalf("/debug/vars missing %s", want)
		}
	}
	if !strings.Contains(httpGet(t, srv.URL+"/debug/pprof/"), "goroutine") {
		t.Fatal("/debug/pprof/ index not served")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSubmitRacesDrain drives traffic from several goroutines while
// the server drains, asserting no response is ever a TInternal (the
// ErrEngineClosed → TDraining mapping) and nothing deadlocks.
func TestSubmitRacesDrain(t *testing.T) {
	s, addr := startTestServer(t, serverConfig{Window: 50 * time.Microsecond, Shards: 2})
	digest := sha256.Sum256([]byte("race"))

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		fc := dialFrame(t, addr)
		wg.Add(1)
		go func(g int, fc *frame.Conn) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f, err := fc.Roundtrip(uint64(g*1000+i+1), frame.TSign, digest[:])
				if err != nil {
					return // drain closed the connection
				}
				if f.Type == frame.TInternal {
					t.Errorf("goroutine %d: got TInternal during drain", g)
					return
				}
				if f.Type == frame.TDraining {
					return
				}
			}
		}(g, fc)
	}
	time.Sleep(5 * time.Millisecond)
	s.shutdown()
	wg.Wait()
}

// countingListener counts the Write calls on the connections it
// accepts.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, writes: &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestBatchAnswersCoalesce pins the mechanism behind one write per
// batch: 32 pipelined hinted verifications on one connection to a
// one-shard server are answered correctly, id by id, in fewer than 32
// socket writes, and the response counters on /metrics account for
// every frame and write.
func TestBatchAnswersCoalesce(t *testing.T) {
	rnd := rand.New(rand.NewSource(236))
	priv, err := repro.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(priv, serverConfig{Shards: 1, MaxBatch: 32, Window: 50 * time.Millisecond, Quiet: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	go s.serve(cl)
	t.Cleanup(s.shutdown)
	fc := dialFrame(t, ln.Addr().String())

	const N = 32
	signers := make([]*repro.PrivateKey, 4)
	for i := range signers {
		if signers[i], err = repro.GenerateKey(rnd); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[uint64]byte, N)
	for i := 0; i < N; i++ {
		signer := signers[i%len(signers)]
		digest := sha256.Sum256([]byte{byte(i)})
		sig, hint, err := repro.SignRecoverable(nil, signer, digest[:])
		if err != nil {
			t.Fatal(err)
		}
		raw := sig.Bytes()
		want[uint64(i+1)] = 1
		if i%5 == 0 {
			raw[len(raw)-1] ^= 1
			want[uint64(i+1)] = 0
		}
		req := frame.AppendVerifyR(nil, hint, signer.PublicKey().BytesCompressed(), raw, digest[:])
		if err := fc.Write(uint64(i+1), frame.TVerifyR, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < N; i++ {
		f, err := fc.Read()
		if err != nil {
			t.Fatal(err)
		}
		v, ok := want[f.ID]
		if !ok || f.Type != frame.TOK || !bytes.Equal(f.Payload, []byte{v}) {
			t.Fatalf("answer id %d: type %#x payload %v, want %v", f.ID, f.Type, f.Payload, []byte{v})
		}
		delete(want, f.ID)
	}
	// The writer counts a flush once its write has returned, which can
	// be after the client has read the answers.
	for deadline := time.Now().Add(5 * time.Second); s.m.respFrames.Load() < N; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("eccserve_response_frames_total stuck at %d, want %d", s.m.respFrames.Load(), N)
		}
	}
	writes := cl.writes.Load()
	if writes >= N {
		t.Fatalf("%d answers left in %d writes, want fewer", N, writes)
	}
	srv := httptest.NewServer(metricsMux(s.m))
	defer srv.Close()
	body := httpGet(t, srv.URL+"/metrics")
	for _, line := range []string{
		fmt.Sprintf("eccserve_response_frames_total %d", N),
		fmt.Sprintf("eccserve_response_writes_total %d", writes),
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("/metrics missing %q", line)
		}
	}
}
