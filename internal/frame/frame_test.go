package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pipePair returns two framed ends of an in-memory connection.
func pipePair() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestRoundTrip(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()

	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xA5}, MaxPayload)}
	go func() {
		for range payloads {
			f, err := server.Read()
			if err != nil {
				t.Error(err)
				return
			}
			if err := server.Write(f.ID, TOK, f.Payload); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i, p := range payloads {
		f, err := client.Roundtrip(uint64(i+7), TSign, p)
		if err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if f.Type != TOK || !bytes.Equal(f.Payload, p) {
			t.Fatalf("payload %d: echo mismatch (type %#x, %d bytes)", i, f.Type, len(f.Payload))
		}
	}
}

func TestWriteSegmentsConcatenate(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()
	go client.Write(1, TVerify, []byte("ab"), nil, []byte("cd"), []byte("e"))
	f, err := server.Read()
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Payload) != "abcde" {
		t.Fatalf("payload = %q", f.Payload)
	}
}

func TestConcurrentWriters(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()
	const N = 64
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := client.Write(uint64(i), TPing, bytes.Repeat([]byte{byte(i)}, i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < N; i++ {
		f, err := server.Read()
		if err != nil {
			t.Fatal(err)
		}
		if seen[f.ID] {
			t.Fatalf("duplicate frame id %d", f.ID)
		}
		seen[f.ID] = true
		if len(f.Payload) != int(f.ID) || (len(f.Payload) > 0 && f.Payload[0] != byte(f.ID)) {
			t.Fatalf("frame %d: interleaved write corrupted payload", f.ID)
		}
	}
	wg.Wait()
}

// TestHostileLengthPrefix checks a hostile length prefix is rejected
// before any buffer is sized from it.
func TestHostileLengthPrefix(t *testing.T) {
	a, b := net.Pipe()
	fc := NewConn(b)
	defer a.Close()
	defer fc.Close()

	errs := make(chan error, 1)
	go func() {
		_, err := fc.Read()
		errs <- err
	}()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31)
	if _, err := a.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}

	// Too short to hold id+type.
	go func() {
		_, err := fc.Read()
		errs <- err
	}()
	binary.BigEndian.PutUint32(hdr[:], 3)
	if _, err := a.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; !errors.Is(err, ErrFrameTooShort) {
		t.Fatalf("err = %v, want ErrFrameTooShort", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	a, b := net.Pipe()
	fc := NewConn(b)
	defer fc.Close()

	errs := make(chan error, 1)
	go func() {
		_, err := fc.Read()
		errs <- err
	}()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], innerLen+10)
	a.Write(hdr[:])
	a.Write([]byte{1, 2, 3}) // then hang up mid-frame
	a.Close()
	if err := <-errs; !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestWriteOversizePayloadRejected(t *testing.T) {
	a, b := net.Pipe()
	_ = b
	fc := NewConn(a)
	defer fc.Close()
	big := make([]byte, MaxPayload+1)
	if err := fc.Write(1, TSign, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// isTimeout reports whether err is a net.Error with Timeout() true —
// the shape deadline expiry must take so callers can classify it.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestWriteStallTimeoutBounded is the regression test for the
// held-mutex-across-blocking-write hazard: a peer that never drains
// its socket must turn Write into a bounded timeout, not an unbounded
// hang, and the connection must then fail later writers fast.
func TestWriteStallTimeoutBounded(t *testing.T) {
	client, server := pipePair() // net.Pipe: a write blocks until read
	defer client.Close()
	defer server.Close()
	_ = server // never reads: the peer is stalled

	client.SetWriteTimeout(100 * time.Millisecond)
	start := time.Now()
	err := client.Write(1, TPing, []byte("payload"))
	elapsed := time.Since(start)
	if !isTimeout(err) {
		t.Fatalf("stalled write err = %v, want a timeout", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("stalled write took %v to time out, want ~100ms", elapsed)
	}
	// The stream may hold a partial frame; later writes fail immediately
	// with the sticky error instead of arming another deadline.
	start = time.Now()
	if err := client.Write(2, TPing); !errors.Is(err, ErrWriteBroken) {
		t.Fatalf("write after broken stream err = %v, want ErrWriteBroken", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("ErrWriteBroken was not fast")
	}
}

// TestWriteStallDoesNotWedgeConcurrentWriters pins the bounded-wait
// contract under contention: with a stalled peer, every queued writer
// returns within the deadline-bounded window (first gets the timeout,
// the rest the sticky ErrWriteBroken) — none wedge forever.
func TestWriteStallDoesNotWedgeConcurrentWriters(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()
	_ = server // stalled peer

	client.SetWriteTimeout(100 * time.Millisecond)
	const N = 5
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		go func(i int) {
			errs <- client.Write(uint64(i), TPing, []byte("x"))
		}(i)
	}
	timeouts, broken := 0, 0
	deadline := time.After(5 * time.Second)
	for i := 0; i < N; i++ {
		select {
		case err := <-errs:
			switch {
			case errors.Is(err, ErrWriteBroken):
				broken++
			case isTimeout(err):
				timeouts++
			default:
				t.Fatalf("concurrent writer err = %v, want timeout or ErrWriteBroken", err)
			}
		case <-deadline:
			t.Fatalf("writers wedged: only %d of %d returned", i, N)
		}
	}
	if timeouts != 1 || broken != N-1 {
		t.Fatalf("timeouts=%d broken=%d, want exactly one timeout and %d fast failures", timeouts, broken, N-1)
	}
}

func TestRoundtripTimeout(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()
	// The server reads the request but never responds.
	go server.Read()

	client.SetRoundtripTimeout(100 * time.Millisecond)
	start := time.Now()
	_, err := client.Roundtrip(1, TPing)
	if !isTimeout(err) {
		t.Fatalf("roundtrip to a mute server err = %v, want a timeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("roundtrip took %v to time out, want ~100ms", time.Since(start))
	}
}

func TestReadIdleTimeout(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()
	_ = client // silent peer

	server.SetReadIdleTimeout(100 * time.Millisecond)
	start := time.Now()
	_, err := server.Read()
	if !isTimeout(err) {
		t.Fatalf("idle read err = %v, want a timeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("idle read took %v to time out, want ~100ms", time.Since(start))
	}
}

func TestSplitVerify(t *testing.T) {
	key := bytes.Repeat([]byte{1}, KeySize)
	sig := bytes.Repeat([]byte{2}, SigSize)
	digest := bytes.Repeat([]byte{3}, 32)
	p := AppendVerify(nil, key, sig, digest)
	k, s, d, ok := SplitVerify(p)
	if !ok || !bytes.Equal(k, key) || !bytes.Equal(s, sig) || !bytes.Equal(d, digest) {
		t.Fatal("SplitVerify did not invert AppendVerify")
	}
	for _, bad := range [][]byte{
		nil,
		p[:KeySize+SigSize],                   // empty digest
		append(p, make([]byte, MaxDigest)...), // digest too long
	} {
		if _, _, _, ok := SplitVerify(bad); ok {
			t.Fatalf("SplitVerify accepted %d-byte payload", len(bad))
		}
	}
}

func TestSplitVerifyR(t *testing.T) {
	key := bytes.Repeat([]byte{1}, KeySize)
	sig := bytes.Repeat([]byte{2}, SigSize)
	digest := bytes.Repeat([]byte{3}, 32)
	for _, hint := range []byte{0, 7, 8, 0xff} {
		p := AppendVerifyR(nil, hint, key, sig, digest)
		h, k, s, d, ok := SplitVerifyR(p)
		if !ok || h != hint || !bytes.Equal(k, key) || !bytes.Equal(s, sig) || !bytes.Equal(d, digest) {
			t.Fatalf("hint %d: SplitVerifyR did not invert AppendVerifyR", hint)
		}
	}
	p := AppendVerifyR(nil, 3, key, sig, digest)
	for _, bad := range [][]byte{
		nil,
		p[:1+KeySize+SigSize],                 // empty digest
		append(p, make([]byte, MaxDigest)...), // digest too long
	} {
		if _, _, _, _, ok := SplitVerifyR(bad); ok {
			t.Fatalf("SplitVerifyR accepted %d-byte payload", len(bad))
		}
	}
	// A TVerifyR payload is exactly a hint byte ahead of TVerify's.
	if got, want := AppendVerifyR(nil, 5, key, sig, digest), append([]byte{5}, AppendVerify(nil, key, sig, digest)...); !bytes.Equal(got, want) {
		t.Fatal("TVerifyR payload is not hint||TVerify payload")
	}
}

func TestSplitEnroll(t *testing.T) {
	reqPoint := bytes.Repeat([]byte{4}, CertSize)
	identity := []byte("sensor-node-17")
	p := AppendEnroll(nil, reqPoint, identity)
	rp, id, ok := SplitEnroll(p)
	if !ok || !bytes.Equal(rp, reqPoint) || !bytes.Equal(id, identity) {
		t.Fatal("SplitEnroll did not invert AppendEnroll")
	}
	// Identity length bounds ride the frame tail.
	if _, id, ok := SplitEnroll(AppendEnroll(nil, reqPoint, []byte{9})); !ok || len(id) != 1 {
		t.Fatal("minimum identity rejected")
	}
	max := bytes.Repeat([]byte{9}, MaxIdentity)
	if _, id, ok := SplitEnroll(AppendEnroll(nil, reqPoint, max)); !ok || len(id) != MaxIdentity {
		t.Fatal("maximum identity rejected")
	}
	for _, bad := range [][]byte{
		nil,
		reqPoint,                                // empty identity
		p[:CertSize-1],                          // truncated point
		append(p, make([]byte, MaxIdentity)...), // identity too long
	} {
		if _, _, ok := SplitEnroll(bad); ok {
			t.Fatalf("SplitEnroll accepted %d-byte payload", len(bad))
		}
	}
}

func TestSplitCertVerify(t *testing.T) {
	cert := bytes.Repeat([]byte{4}, CertSize)
	identity := []byte("node-a")
	sig := bytes.Repeat([]byte{2}, SigSize)
	digest := bytes.Repeat([]byte{3}, 32)
	p := AppendCertVerify(nil, cert, identity, sig, digest)
	c, id, s, d, ok := SplitCertVerify(p)
	if !ok || !bytes.Equal(c, cert) || !bytes.Equal(id, identity) || !bytes.Equal(s, sig) || !bytes.Equal(d, digest) {
		t.Fatal("SplitCertVerify did not invert AppendCertVerify")
	}
	// Hostile identity length prefixes: zero, beyond MaxIdentity, and a
	// length that swallows the signature.
	zeroLen := bytes.Clone(p)
	zeroLen[CertSize] = 0
	overMax := bytes.Clone(p)
	overMax[CertSize] = MaxIdentity + 1
	swallow := bytes.Clone(p)
	swallow[CertSize] = byte(len(identity) + SigSize)
	for i, bad := range [][]byte{
		nil,
		cert,                                  // no identity length byte
		p[:CertSize+1+len(identity)+SigSize],  // empty digest
		append(p, make([]byte, MaxDigest)...), // digest too long
		zeroLen,
		overMax,
		swallow,
	} {
		if _, _, _, _, ok := SplitCertVerify(bad); ok {
			t.Fatalf("SplitCertVerify accepted hostile payload %d", i)
		}
	}
}

// queueStats counts a queued writer's flushes and frames and records
// every broken-stream report.
type queueStats struct {
	mu             sync.Mutex
	flushes, sent  int
	broken         []error
	brokenReported chan struct{}
}

// startQueued starts the writer goroutine of c.
func startQueued(c *Conn) *queueStats {
	st := &queueStats{brokenReported: make(chan struct{})}
	c.StartWriter(func(n int) {
		st.mu.Lock()
		st.flushes++
		st.sent += n
		st.mu.Unlock()
	}, func(err error) {
		st.mu.Lock()
		st.broken = append(st.broken, err)
		st.mu.Unlock()
		close(st.brokenReported)
	})
	return st
}

// TestQueueManyWriters queues 1,000 frames with mixed segments from 64
// goroutines: the peer reads every frame exactly once and byte-exact,
// every completion runs exactly once with nil, and the writer sends
// them in no more writes than frames.
func TestQueueManyWriters(t *testing.T) {
	client, server := pipePair()
	defer client.Close()
	defer server.Close()
	st := startQueued(server)

	const G, N = 64, 1000
	payload := func(id int) [][]byte {
		p := bytes.Repeat([]byte{byte(id)}, id%50)
		return [][]byte{p[:len(p)/3], nil, p[len(p)/3:], []byte{byte(id >> 8)}}
	}
	var completions [N]atomic.Int32
	var done sync.WaitGroup
	done.Add(N)
	for g := 0; g < G; g++ {
		go func(g int) {
			for id := g; id < N; id += G {
				server.Queue(func(err error) {
					if err != nil {
						t.Errorf("frame %d completed with %v", id, err)
					}
					completions[id].Add(1)
					done.Done()
				}, uint64(id), TOK, payload(id)...)
			}
		}(g)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < N; i++ {
		f, err := client.Read()
		if err != nil {
			t.Fatalf("frame %d of %d: %v", i, N, err)
		}
		if seen[f.ID] || f.ID >= N || f.Type != TOK {
			t.Fatalf("unexpected frame id %d type %#x", f.ID, f.Type)
		}
		seen[f.ID] = true
		if want := bytes.Join(payload(int(f.ID)), nil); !bytes.Equal(f.Payload, want) {
			t.Fatalf("frame %d: payload %x, want %x", f.ID, f.Payload, want)
		}
	}
	done.Wait()
	for id := range completions {
		if n := completions[id].Load(); n != 1 {
			t.Fatalf("frame %d completed %d times", id, n)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sent != N || st.flushes < 1 || st.flushes > N || len(st.broken) != 0 {
		t.Fatalf("flushed %d frames in %d writes, broken %v", st.sent, st.flushes, st.broken)
	}
}

// TestQueueBrokenFlush fails a flush two ways, a write stall under a
// deadline and a closed peer: broken is reported once, every frame of
// the failed flush and every frame queued after it completes with an
// error, and nothing queued after the break reaches the wire.
func TestQueueBrokenFlush(t *testing.T) {
	for _, tc := range []struct {
		name  string
		brk   func(client *Conn)
		check func(err error) bool
	}{
		{"write stall", func(*Conn) {}, isTimeout},
		{"closed peer", func(client *Conn) { client.Close() }, func(err error) bool { return err != nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := pipePair() // net.Pipe: a write blocks until read
			defer client.Close()
			defer server.Close()
			server.SetWriteTimeout(100 * time.Millisecond)
			st := startQueued(server)

			errs := make(chan error, 8)
			record := func(err error) { errs <- err }
			tc.brk(client)
			for id := uint64(1); id <= 3; id++ {
				server.Queue(record, id, TOK, []byte("x"))
			}
			select {
			case <-st.brokenReported:
			case <-time.After(5 * time.Second):
				t.Fatal("the failed flush was never reported")
			}
			st.mu.Lock()
			if len(st.broken) != 1 || !tc.check(st.broken[0]) {
				t.Fatalf("broken reports %v", st.broken)
			}
			st.mu.Unlock()
			for i := 0; i < 3; i++ {
				select {
				case err := <-errs:
					if err == nil {
						t.Fatal("a frame of the broken stream completed with nil")
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a frame of the broken stream never completed")
				}
			}
			// Queued after the break: completes at once, before Queue
			// returns, and is never sent.
			server.Queue(record, 4, TOK, []byte("late"))
			select {
			case err := <-errs:
				if !errors.Is(err, ErrWriteBroken) {
					t.Fatalf("frame queued after the break: err = %v, want ErrWriteBroken", err)
				}
			default:
				t.Fatal("a frame queued after the break did not complete at once")
			}
			if tc.name == "write stall" {
				client.SetReadIdleTimeout(200 * time.Millisecond)
				if f, err := client.Read(); !isTimeout(err) {
					t.Fatalf("peer read %+v, %v after the break; want nothing", f, err)
				}
			}
			st.mu.Lock()
			defer st.mu.Unlock()
			if len(st.broken) != 1 || st.sent != 0 {
				t.Fatalf("broken reported %d times, %d frames sent", len(st.broken), st.sent)
			}
		})
	}
}

// TestQueueClose closes a Conn whose writer is blocked in a flush to a
// peer that never reads, with more frames queued behind it: every
// frame completes with an error, a frame queued after Close completes
// at once, and the writer goroutine exits.
func TestQueueClose(t *testing.T) {
	before := runtime.NumGoroutine()
	client, server := pipePair()
	defer client.Close()
	st := startQueued(server)

	const N = 5
	errs := make(chan error, N+1)
	for id := uint64(1); id <= N; id++ {
		server.Queue(func(err error) { errs <- err }, id, TOK, []byte("queued"))
	}
	server.Close()
	server.Queue(func(err error) { errs <- err }, N+1, TOK)
	for i := 0; i < N+1; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a frame completed with nil on a Conn closed before any read")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d frames completed after Close", i, N+1)
		}
	}
	client.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("writer goroutine outlived Close\n%s", buf[:runtime.Stack(buf, true)])
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sent != 0 || len(st.broken) > 1 {
		t.Fatalf("%d frames reached a peer that never read; broken reported %d times", st.sent, len(st.broken))
	}
}
