package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
)

// streamConn is a net.Conn whose read side replays a fixed byte stream
// and whose write side collects what is written.
type streamConn struct {
	net.Conn
	r io.Reader
	w bytes.Buffer
}

func (c *streamConn) Read(b []byte) (int, error)  { return c.r.Read(b) }
func (c *streamConn) Write(b []byte) (int, error) { return c.w.Write(b) }

// FuzzFrame feeds arbitrary byte streams — hostile length prefixes and
// truncation included — through Conn.Read, then every Split* helper on
// each decoded payload. Nothing may panic; every frame Read accepts
// holds at most MaxPayload bytes and re-encodes to the bytes it was
// read from; a stream ends only in one of Read's documented errors;
// and each accepted split has the fields' wire sizes and reassembles
// through its Append* to the same payload.
func FuzzFrame(f *testing.F) {
	frameBytes := func(id uint64, typ byte, payload []byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(innerLen+len(payload)))
		b = binary.BigEndian.AppendUint64(b, id)
		return append(append(b, typ), payload...)
	}
	key := bytes.Repeat([]byte{0x02}, KeySize)
	sig := bytes.Repeat([]byte{0x5a}, SigSize)
	digest := bytes.Repeat([]byte{0xd1}, 32)
	id := []byte("node-0001")
	f.Add([]byte{})
	f.Add(frameBytes(1, TPing, nil))
	f.Add(frameBytes(2, TVerify, AppendVerify(nil, key, sig, digest)))
	f.Add(frameBytes(3, TVerifyR, AppendVerifyR(nil, 1, key, sig, digest)))
	f.Add(frameBytes(4, TEnroll, AppendEnroll(nil, key, id)))
	f.Add(append(frameBytes(5, TCertVerify, AppendCertVerify(nil, key, id, sig, digest)), frameBytes(6, TSign, digest)...))
	f.Add([]byte{0x80, 0, 0, 0, 1, 2, 3})      // length prefix 2^31
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3})         // shorter than id + type
	f.Add(frameBytes(7, TVerify, digest)[:20]) // truncated mid-frame
	f.Add(frameBytes(8, TOK, make([]byte, MaxPayload)))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := &streamConn{r: bytes.NewReader(data)}
		c := NewConn(sc)
		consumed := 0
		for {
			fr, err := c.Read()
			if err != nil {
				if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) &&
					!errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrFrameTooShort) {
					t.Fatalf("Read: undocumented error %v", err)
				}
				break
			}
			if len(fr.Payload) > MaxPayload {
				t.Fatalf("Read accepted a %d-byte payload", len(fr.Payload))
			}
			consumed += headerLen + innerLen + len(fr.Payload)
			if err := c.Write(fr.ID, fr.Type, fr.Payload); err != nil {
				t.Fatalf("re-encoding an accepted frame: %v", err)
			}
			checkSplits(t, fr.Payload)
		}
		if !bytes.Equal(sc.w.Bytes(), data[:consumed]) {
			t.Fatal("accepted frames do not re-encode to the bytes they were read from")
		}
	})
}

// checkSplits runs every Split* helper on p: each accepted split must
// have its fields' wire sizes and reassemble to p.
func checkSplits(t *testing.T, p []byte) {
	t.Helper()
	digestOK := func(d []byte) bool { return len(d) >= 1 && len(d) <= MaxDigest }
	if key, sig, digest, ok := SplitVerify(p); ok {
		if len(key) != KeySize || len(sig) != SigSize || !digestOK(digest) {
			t.Fatalf("SplitVerify: field sizes %d/%d/%d", len(key), len(sig), len(digest))
		}
		if !bytes.Equal(AppendVerify(nil, key, sig, digest), p) {
			t.Fatal("SplitVerify does not reassemble")
		}
	}
	if hint, key, sig, digest, ok := SplitVerifyR(p); ok {
		if len(key) != KeySize || len(sig) != SigSize || !digestOK(digest) {
			t.Fatalf("SplitVerifyR: field sizes %d/%d/%d", len(key), len(sig), len(digest))
		}
		if !bytes.Equal(AppendVerifyR(nil, hint, key, sig, digest), p) {
			t.Fatal("SplitVerifyR does not reassemble")
		}
	}
	if reqPoint, identity, ok := SplitEnroll(p); ok {
		if len(reqPoint) != CertSize || len(identity) < 1 || len(identity) > MaxIdentity {
			t.Fatalf("SplitEnroll: field sizes %d/%d", len(reqPoint), len(identity))
		}
		if !bytes.Equal(AppendEnroll(nil, reqPoint, identity), p) {
			t.Fatal("SplitEnroll does not reassemble")
		}
	}
	if cert, identity, sig, digest, ok := SplitCertVerify(p); ok {
		if len(cert) != CertSize || len(identity) < 1 || len(identity) > MaxIdentity ||
			len(sig) != SigSize || !digestOK(digest) {
			t.Fatalf("SplitCertVerify: field sizes %d/%d/%d/%d", len(cert), len(identity), len(sig), len(digest))
		}
		if !bytes.Equal(AppendCertVerify(nil, cert, identity, sig, digest), p) {
			t.Fatal("SplitCertVerify does not reassemble")
		}
	}
}
