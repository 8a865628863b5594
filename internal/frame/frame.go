// Package frame is the length-prefixed binary wire protocol between
// cmd/eccserve and its clients (cmd/eccload's network mode, the
// integration tests). The framing is deliberately tiny — this is the
// paper's constrained-client setting, where a sign round trip should
// cost tens of bytes, not a TLS handshake:
//
//	frame := len(uint32 BE) | id(uint64 BE) | type(uint8) | payload
//
// len counts everything after itself (id + type + payload), so an
// empty-payload frame is 13 bytes on the wire. id is an opaque
// correlation token the server echoes back verbatim: responses may
// complete out of order (they ride different engine batches), and the
// id is how a pipelining client matches them up.
//
// Request types and payloads:
//
//	TPing   — empty. Response: TOK with the server's compressed
//	          public key (KeySize bytes), doubling as an identity
//	          probe so clients can check signatures locally.
//	TSign   — the digest to sign (1..MaxDigest bytes). Response: TOK
//	          with the fixed-width raw signature (SigSize bytes).
//	TVerify — key(KeySize) | sig(SigSize) | digest(1..MaxDigest).
//	          Response: TOK with 1 payload byte: 1 valid, 0 invalid.
//	TECDH   — the peer's compressed public key (KeySize bytes).
//	          Response: TOK with the shared abscissa (SecretSize).
//	TVerifyR — hint(1) | key(KeySize) | sig(SigSize) |
//	          digest(1..MaxDigest): a verify request carrying the
//	          signature's nonce-point recovery hint, which lets the
//	          server coalesce many verifications into one randomised
//	          linear-combination pass. The hint is an accelerator, never
//	          an input to the verdict — a wrong or out-of-range hint only
//	          costs the fast path. Response: as TVerify.
//	TEnroll — reqPoint(CertSize) | identity(1..MaxIdentity): an ECQV
//	          enrollment. The server (acting as CA) issues an implicit
//	          certificate over the request point, extracts and caches
//	          the certified key, and responds TOK with
//	          cert(CertSize) | contrib(ContribSize) — everything the
//	          client needs to reconstruct its private key.
//	TCertVerify — cert(CertSize) | idLen(1) | identity(1..MaxIdentity) |
//	          sig(SigSize) | digest(1..MaxDigest): verify a signature
//	          under the public key extracted from an implicit
//	          certificate (cache-accelerated server side). Response: as
//	          TVerify.
//
// Error responses carry no payload: TBadRequest (malformed frame
// contents), TOverload (load shed — retry against another replica or
// back off), TDraining (server shutting down — reconnect elsewhere),
// TInternal (request failed inside the server).
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/gf233"
	"repro/internal/sign"
)

// Request frame types.
const (
	TPing       = 0x01
	TSign       = 0x02
	TVerify     = 0x03
	TECDH       = 0x04
	TVerifyR    = 0x05
	TEnroll     = 0x06
	TCertVerify = 0x07
)

// Response frame types. TOK is the only one that carries a payload.
const (
	TOK         = 0x80
	TBadRequest = 0x81
	TOverload   = 0x82
	TDraining   = 0x83
	TInternal   = 0x84
)

// Wire sizes, all derived from the field width.
const (
	// KeySize is a compressed public key: (0x02|ỹ) || x.
	KeySize = 1 + gf233.ByteLen
	// SigSize is a fixed-width raw signature r || s.
	SigSize = sign.RawSize
	// SecretSize is an ECDH shared abscissa.
	SecretSize = gf233.ByteLen
	// MaxDigest caps the digest length accepted in sign and verify
	// requests (SHA-512 output is the largest standard digest).
	MaxDigest = 64
	// CertSize is an ECQV implicit certificate (and a certificate
	// request point): one compressed point, same shape as KeySize.
	CertSize = 1 + gf233.ByteLen
	// ContribSize is the ECQV private-key contribution the CA returns
	// alongside the certificate: a fixed-width scalar at the private
	// key width.
	ContribSize = gf233.ByteLen
	// MaxIdentity caps a certified identity, mirroring the certificate
	// subsystem's bound.
	MaxIdentity = 64
	// MaxPayload caps a frame payload; frames announcing more are a
	// protocol error and the connection is torn down. Big enough for
	// every defined request with slack for evolution, small enough
	// that a hostile length prefix cannot balloon the read buffer.
	MaxPayload = 4096

	headerLen = 4     // the length prefix itself
	innerLen  = 8 + 1 // id + type
	maxFrame  = innerLen + MaxPayload
)

// ErrFrameTooLarge reports a length prefix beyond MaxPayload.
var ErrFrameTooLarge = errors.New("frame: frame exceeds MaxPayload")

// ErrFrameTooShort reports a length prefix too small to hold id+type.
var ErrFrameTooShort = errors.New("frame: frame shorter than header")

// ErrWriteBroken reports a Write on a connection whose outgoing frame
// stream was already corrupted by an earlier failed write: a frame
// write that errors mid-way (deadline expiry, reset) may have left a
// partial frame on the wire, after which no later frame can be framed
// correctly. Writers get this error immediately instead of queueing
// behind a dead connection. Queued frames that will never be sent,
// because the stream broke or the Conn closed, complete with it too.
var ErrWriteBroken = errors.New("frame: write stream broken by earlier error")

// Frame is one decoded frame. Payload aliases the connection's read
// buffer and is valid only until the next Read on the same Conn —
// copy it before handing it to another goroutine.
type Frame struct {
	ID      uint64
	Type    byte
	Payload []byte
}

// Conn wraps a net.Conn with frame encode/decode state: a buffered
// single-reader side and a mutex-serialised writer side, so any
// number of goroutines may Write responses while one goroutine owns
// Read — exactly the shape of a pipelined server connection. A server
// may instead Queue its responses for a writer goroutine that sends
// whatever has accumulated in one write (StartWriter).
type Conn struct {
	nc   net.Conn
	br   *bufio.Reader
	rbuf [maxFrame]byte

	// Timeout knobs; set before the Conn sees concurrent traffic (the
	// setters do not synchronise with Read/Write).
	readIdle     time.Duration
	writeTimeout time.Duration
	rtTimeout    time.Duration

	wmu  sync.Mutex
	wbuf []byte
	werr error // sticky: first write error, stream corrupt after it

	// The queued writer, guarded by qmu; qcond wakes its goroutine.
	qmu   sync.Mutex
	qcond sync.Cond
	qbuf  []byte        // frames queued since the last flush began
	qdone []func(error) // their completions, one per frame (nil allowed)
	qerr  error         // sticky: the error that broke the stream, or net.ErrClosed
}

// NewConn wraps c.
func NewConn(c net.Conn) *Conn {
	fc := &Conn{nc: c, br: bufio.NewReaderSize(c, 4<<10)}
	fc.qcond.L = &fc.qmu
	return fc
}

// SetReadIdleTimeout arms a read deadline of d before every Read: a
// peer that goes silent (or stalls mid-frame) for longer than d makes
// Read fail with a timeout error instead of blocking forever. Zero
// disables. Call before sharing the Conn across goroutines.
func (c *Conn) SetReadIdleTimeout(d time.Duration) { c.readIdle = d }

// SetWriteTimeout arms a write deadline of d before every frame write:
// a peer that stops draining its socket makes Write fail with a
// timeout error after d instead of blocking its caller — and every
// writer queued behind it — forever. Zero disables. Call before
// sharing the Conn across goroutines.
func (c *Conn) SetWriteTimeout(d time.Duration) { c.writeTimeout = d }

// SetRoundtripTimeout bounds each Roundtrip call to d end to end
// (request write + response read) via one connection deadline. Zero
// disables. Call before sharing the Conn across goroutines.
func (c *Conn) SetRoundtripTimeout(d time.Duration) { c.rtTimeout = d }

// Read decodes the next frame. The returned payload is only valid
// until the next Read.
func (c *Conn) Read() (Frame, error) {
	if c.readIdle > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.readIdle))
	}
	if _, err := io.ReadFull(c.br, c.rbuf[:headerLen]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(c.rbuf[:headerLen])
	if n > maxFrame {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if n < innerLen {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooShort, n)
	}
	b := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, b); err != nil {
		return Frame{}, err
	}
	return Frame{
		ID:      binary.BigEndian.Uint64(b[:8]),
		Type:    b[8],
		Payload: b[9:],
	}, nil
}

// Write encodes and sends one frame whose payload is the
// concatenation of segs (writing scattered segments directly avoids
// the callers assembling temporary buffers). It is safe for
// concurrent use.
func (c *Conn) Write(id uint64, typ byte, segs ...[]byte) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, total)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		return fmt.Errorf("%w: %v", ErrWriteBroken, c.werr)
	}
	b := append(c.wbuf[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(b, uint32(innerLen+total))
	b = binary.BigEndian.AppendUint64(b, id)
	b = append(b, typ)
	for _, s := range segs {
		b = append(b, s...)
	}
	c.wbuf = b
	if c.writeTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	_, err := c.nc.Write(b)
	if err != nil {
		// The frame may have been written partially: the stream can no
		// longer be framed. Fail later writers fast instead of letting
		// them queue on the mutex of a dead connection.
		c.werr = err
	}
	return err
}

// StartWriter starts the connection's writer goroutine, which sends
// the frames Queue accumulates: each flush takes everything queued
// since the previous one began and sends it in one Write, under one
// write deadline (SetWriteTimeout). flushed, when non-nil, observes
// each successful flush with the number of frames it carried. broken
// receives the error of a failed flush (one that Close caused
// included) before any frame it failed completes; the goroutine then
// exits, as it does on Close, so broken runs at most once. Call
// StartWriter at most once, before the first Queue, and do not mix
// Queue with Write.
func (c *Conn) StartWriter(flushed func(frames int), broken func(error)) {
	go c.writeLoop(flushed, broken)
}

// Queue appends one frame, whose payload is the concatenation of segs,
// to the connection's outgoing buffer and returns without blocking;
// segs are copied. done, when non-nil, runs exactly once: on the
// writer goroutine after the flush that carried the frame, with nil or
// with the error that broke the stream. A frame queued once the stream
// broke or the Conn closed never reaches the wire, and its done runs
// at once with an ErrWriteBroken error. done must not block. Safe for
// concurrent use.
func (c *Conn) Queue(done func(error), id uint64, typ byte, segs ...[]byte) {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total > MaxPayload {
		complete(done, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, total))
		return
	}
	c.qmu.Lock()
	if c.qerr != nil {
		err := c.qerr
		c.qmu.Unlock()
		complete(done, fmt.Errorf("%w: %v", ErrWriteBroken, err))
		return
	}
	// The frame layout Write sends.
	b := binary.BigEndian.AppendUint32(c.qbuf, uint32(innerLen+total))
	b = binary.BigEndian.AppendUint64(b, id)
	b = append(b, typ)
	for _, s := range segs {
		b = append(b, s...)
	}
	c.qbuf = b
	c.qdone = append(c.qdone, done)
	c.qmu.Unlock()
	c.qcond.Signal()
}

// writeLoop is the writer goroutine. A flush swaps the queued frames
// out under the lock and writes them unlocked, so frames queued while
// it is in progress leave together in the next one.
func (c *Conn) writeLoop(flushed func(int), broken func(error)) {
	var buf []byte
	var done []func(error)
	for {
		c.qmu.Lock()
		for len(c.qbuf) == 0 && c.qerr == nil {
			c.qcond.Wait()
		}
		if c.qerr != nil {
			// Closed: whatever is still queued never goes out.
			left, err := c.qdone, c.qerr
			c.qbuf, c.qdone = nil, nil
			c.qmu.Unlock()
			completeAll(left, fmt.Errorf("%w: %v", ErrWriteBroken, err))
			return
		}
		buf, c.qbuf = c.qbuf, buf[:0]
		done, c.qdone = c.qdone, done[:0]
		c.qmu.Unlock()
		if c.writeTimeout > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout))
		}
		if _, err := c.nc.Write(buf); err != nil {
			// The flush may have left a partial frame on the wire: the
			// stream can no longer be framed.
			c.qmu.Lock()
			if c.qerr == nil {
				c.qerr = err
			}
			left := c.qdone
			c.qbuf, c.qdone = nil, nil
			c.qmu.Unlock()
			if broken != nil {
				broken(err)
			}
			completeAll(done, err)
			completeAll(left, fmt.Errorf("%w: %v", ErrWriteBroken, err))
			return
		}
		if flushed != nil {
			flushed(len(done))
		}
		completeAll(done, nil)
		clear(done)
	}
}

func complete(done func(error), err error) {
	if done != nil {
		done(err)
	}
}

func completeAll(done []func(error), err error) {
	for _, f := range done {
		complete(f, err)
	}
}

// Close closes the underlying connection. Frames still queued complete
// with an error and never reach the wire, and the writer goroutine
// exits as soon as a flush it may be blocked in fails on the closed
// connection. Close does not wait for it, so broken may call Close.
func (c *Conn) Close() error {
	c.qmu.Lock()
	if c.qerr == nil {
		c.qerr = net.ErrClosed
	}
	c.qmu.Unlock()
	c.qcond.Broadcast()
	return c.nc.Close()
}

// RemoteAddr reports the peer address of the underlying connection.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// SplitVerify decomposes a TVerify request payload into its key,
// signature and digest fields, reporting false for payloads whose
// framing is structurally wrong (the digest bounds included).
func SplitVerify(p []byte) (key, sig, digest []byte, ok bool) {
	if len(p) <= KeySize+SigSize || len(p) > KeySize+SigSize+MaxDigest {
		return nil, nil, nil, false
	}
	return p[:KeySize], p[KeySize : KeySize+SigSize], p[KeySize+SigSize:], true
}

// AppendVerify assembles a TVerify request payload.
func AppendVerify(dst, key, sig, digest []byte) []byte {
	dst = append(dst, key...)
	dst = append(dst, sig...)
	return append(dst, digest...)
}

// SplitVerifyR decomposes a TVerifyR request payload into its hint,
// key, signature and digest fields, reporting false for payloads whose
// framing is structurally wrong. The hint byte itself is not validated
// here: any value is wire-legal, and out-of-range hints simply route
// the request through the plain verification path.
func SplitVerifyR(p []byte) (hint byte, key, sig, digest []byte, ok bool) {
	if len(p) <= 1+KeySize+SigSize || len(p) > 1+KeySize+SigSize+MaxDigest {
		return 0, nil, nil, nil, false
	}
	return p[0], p[1 : 1+KeySize], p[1+KeySize : 1+KeySize+SigSize], p[1+KeySize+SigSize:], true
}

// AppendVerifyR assembles a TVerifyR request payload.
func AppendVerifyR(dst []byte, hint byte, key, sig, digest []byte) []byte {
	dst = append(dst, hint)
	dst = append(dst, key...)
	dst = append(dst, sig...)
	return append(dst, digest...)
}

// SplitEnroll decomposes a TEnroll request payload into the request
// point and the identity, reporting false for payloads whose framing
// is structurally wrong (the identity bounds included).
func SplitEnroll(p []byte) (reqPoint, identity []byte, ok bool) {
	if len(p) <= CertSize || len(p) > CertSize+MaxIdentity {
		return nil, nil, false
	}
	return p[:CertSize], p[CertSize:], true
}

// AppendEnroll assembles a TEnroll request payload.
func AppendEnroll(dst, reqPoint, identity []byte) []byte {
	dst = append(dst, reqPoint...)
	return append(dst, identity...)
}

// SplitCertVerify decomposes a TCertVerify request payload into its
// certificate, identity, signature and digest fields. The identity is
// length-prefixed (one byte) because, unlike every other variable
// field, it is not the frame tail.
func SplitCertVerify(p []byte) (cert, identity, sig, digest []byte, ok bool) {
	if len(p) < CertSize+1 {
		return nil, nil, nil, nil, false
	}
	idLen := int(p[CertSize])
	if idLen < 1 || idLen > MaxIdentity {
		return nil, nil, nil, nil, false
	}
	rest := p[CertSize+1:]
	if len(rest) <= idLen+SigSize || len(rest) > idLen+SigSize+MaxDigest {
		return nil, nil, nil, nil, false
	}
	return p[:CertSize], rest[:idLen], rest[idLen : idLen+SigSize], rest[idLen+SigSize:], true
}

// AppendCertVerify assembles a TCertVerify request payload. The
// identity length must already be within [1, MaxIdentity]; the server
// side re-checks on split.
func AppendCertVerify(dst, cert, identity, sig, digest []byte) []byte {
	dst = append(dst, cert...)
	dst = append(dst, byte(len(identity)))
	dst = append(dst, identity...)
	dst = append(dst, sig...)
	return append(dst, digest...)
}

// Roundtrip sends one request frame and blocks for the next response
// frame — the synchronous client idiom (one request in flight per
// connection). The returned payload is only valid until the next
// Read. With SetRoundtripTimeout armed the whole exchange is bounded;
// after a timeout the connection is unusable for further roundtrips
// (a late response would desynchronise the id matching), so callers
// should close and redial.
func (c *Conn) Roundtrip(id uint64, typ byte, segs ...[]byte) (Frame, error) {
	if c.rtTimeout > 0 {
		c.nc.SetDeadline(time.Now().Add(c.rtTimeout))
	}
	if err := c.Write(id, typ, segs...); err != nil {
		return Frame{}, err
	}
	f, err := c.Read()
	if err != nil {
		return Frame{}, err
	}
	if f.ID != id {
		return Frame{}, fmt.Errorf("frame: response id %d for request %d", f.ID, id)
	}
	return f, nil
}
