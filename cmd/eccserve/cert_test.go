package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/frame"
)

// enrollOnce drives one TEnroll round trip and reconstructs the
// private key client-side, cross-checking it against the key the
// verifier would extract — the full ECQV contract over the wire.
func enrollOnce(t *testing.T, fc *frame.Conn, serverPub *repro.PublicKey, identity []byte, seed int64) (*repro.Cert, *repro.PrivateKey) {
	t.Helper()
	req, err := repro.RequestCert(rand.New(rand.NewSource(seed)), identity)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fc.Roundtrip(1, frame.TEnroll, frame.AppendEnroll(nil, req.Bytes(), identity))
	if err != nil || f.Type != frame.TOK {
		t.Fatalf("enroll: type %#x err %v", f.Type, err)
	}
	if len(f.Payload) != frame.CertSize+frame.ContribSize {
		t.Fatalf("enroll: %d-byte payload", len(f.Payload))
	}
	certBytes := append([]byte(nil), f.Payload[:frame.CertSize]...)
	contrib := append([]byte(nil), f.Payload[frame.CertSize:]...)
	cert, err := repro.ParseCert(certBytes, identity)
	if err != nil {
		t.Fatalf("enroll: issued certificate does not parse: %v", err)
	}
	priv, err := repro.ReconstructPrivateKey(req, cert, contrib, serverPub)
	if err != nil {
		t.Fatalf("enroll: reconstruct: %v", err)
	}
	extracted, err := repro.ExtractPublicKey(cert, serverPub)
	if err != nil {
		t.Fatalf("enroll: extract: %v", err)
	}
	if !bytes.Equal(extracted.BytesCompressed(), priv.PublicKey().BytesCompressed()) {
		t.Fatal("enroll: extracted public key disagrees with reconstructed private key")
	}
	return cert, priv
}

// TestServeEnrollCertVerify is the end-to-end certificate lifecycle
// over the loopback wire: enroll, verify under the certificate, and
// confirm the enrollment pre-warmed both cache namespaces.
func TestServeEnrollCertVerify(t *testing.T) {
	s, addr := startTestServer(t, serverConfig{Window: 100 * time.Microsecond})
	fc := dialFrame(t, addr)

	f, err := fc.Roundtrip(1, frame.TPing)
	if err != nil || f.Type != frame.TOK {
		t.Fatalf("ping: type %#x err %v", f.Type, err)
	}
	serverPub, err := repro.NewPublicKey(f.Payload)
	if err != nil {
		t.Fatal(err)
	}

	identity := []byte("sensor-node-0017")
	cert, priv := enrollOnce(t, fc, serverPub, identity, 7)
	certBytes := cert.Bytes()
	if got := s.m.enrollments.Load(); got != 1 {
		t.Fatalf("enrollments counter = %d, want 1", got)
	}
	if got := s.m.extractions.Load(); got != 1 {
		t.Fatalf("extractions counter = %d, want 1", got)
	}
	// Enrollment warms both namespaces: the cert entry and the
	// extracted-key alias.
	if got := s.cache.len(); got != 2 {
		t.Fatalf("cache has %d entries after enroll, want 2", got)
	}
	// Enrollment is not a use: the key earns a table only by verifying.
	if got := s.m.tableBuilds.Load(); got != 0 {
		t.Fatalf("enrollment built %d tables, want 0", got)
	}

	digest := sha256.Sum256([]byte("certified message"))
	sig, _, err := repro.SignRecoverable(nil, priv, digest[:])
	if err != nil {
		t.Fatal(err)
	}

	// First TCertVerify must be a cache hit — no new key build.
	builds := s.m.cacheBuilds.Load()
	hits := s.m.cacheHits.Load()
	req := frame.AppendCertVerify(nil, certBytes, identity, sig.Bytes(), digest[:])
	f, err = fc.Roundtrip(2, frame.TCertVerify, req)
	if err != nil || f.Type != frame.TOK || !bytes.Equal(f.Payload, []byte{1}) {
		t.Fatalf("certverify: type %#x payload %x err %v", f.Type, f.Payload, err)
	}
	if got := s.m.cacheBuilds.Load(); got != builds {
		t.Fatalf("certverify after enroll rebuilt the key (builds %d -> %d), want warm hit", builds, got)
	}
	if got := s.m.cacheHits.Load(); got != hits+1 {
		t.Fatalf("cacheHits = %d, want %d", got, hits+1)
	}

	// Wrong digest: well-formed, answered invalid.
	wrong := sha256.Sum256([]byte("different message"))
	req = frame.AppendCertVerify(nil, certBytes, identity, sig.Bytes(), wrong[:])
	f, err = fc.Roundtrip(3, frame.TCertVerify, req)
	if err != nil || f.Type != frame.TOK || !bytes.Equal(f.Payload, []byte{0}) {
		t.Fatalf("certverify wrong digest: type %#x payload %x err %v", f.Type, f.Payload, err)
	}
	if s.m.verifyFail.Load() == 0 {
		t.Fatal("invalid certverify did not bump verifyFail")
	}

	// Identity substitution: the certificate still parses and extracts,
	// but to an unrelated key — the signature must not verify.
	req = frame.AppendCertVerify(nil, certBytes, []byte("sensor-node-0018"), sig.Bytes(), digest[:])
	f, err = fc.Roundtrip(4, frame.TCertVerify, req)
	if err != nil || f.Type != frame.TOK {
		t.Fatalf("certverify swapped identity: type %#x err %v", f.Type, err)
	}
	if !bytes.Equal(f.Payload, []byte{0}) {
		t.Fatalf("certverify accepted a signature under a substituted identity")
	}

	// The extracted key presented directly to plain TVerify hits the
	// key-namespace alias — still no build.
	builds = s.m.cacheBuilds.Load()
	vreq := frame.AppendVerify(nil, priv.PublicKey().BytesCompressed(), sig.Bytes(), digest[:])
	f, err = fc.Roundtrip(5, frame.TVerify, vreq)
	if err != nil || f.Type != frame.TOK || !bytes.Equal(f.Payload, []byte{1}) {
		t.Fatalf("verify with extracted key: type %#x payload %x err %v", f.Type, f.Payload, err)
	}
	if got := s.m.cacheBuilds.Load(); got != builds {
		t.Fatalf("plain verify with extracted key rebuilt it (builds %d -> %d), want alias hit", builds, got)
	}

	// Forged certificate: a torsion point in the cert slot is rejected
	// at the protocol level, never reaching the verification kernels.
	torsion := make([]byte, frame.CertSize)
	torsion[0] = 0x02 // compressed encoding of x = 0: the order-2 point (0, 1)
	req = frame.AppendCertVerify(nil, torsion, identity, sig.Bytes(), digest[:])
	f, err = fc.Roundtrip(6, frame.TCertVerify, req)
	if err != nil || f.Type != frame.TBadRequest {
		t.Fatalf("certverify torsion cert: type %#x err %v, want TBadRequest", f.Type, err)
	}

	// Malformed enrollments are protocol rejects too.
	badEnrolls := [][]byte{
		certBytes, // no identity at all
		frame.AppendEnroll(nil, torsion, identity),                                         // torsion request point
		frame.AppendEnroll(nil, certBytes, bytes.Repeat([]byte{'x'}, frame.MaxIdentity+1)), // identity too long
	}
	for i, p := range badEnrolls {
		f, err = fc.Roundtrip(uint64(10+i), frame.TEnroll, p)
		if err != nil || f.Type != frame.TBadRequest {
			t.Fatalf("bad enroll %d: type %#x err %v, want TBadRequest", i, f.Type, err)
		}
	}
}

// TestServeCertVerifySingleflight pins the build count when many
// clients present the same cold certificate at once: the key tier's
// singleflight must collapse them into exactly one extraction.
func TestServeCertVerifySingleflight(t *testing.T) {
	s, addr := startTestServer(t, serverConfig{Window: 100 * time.Microsecond})

	// Issue a certificate directly against the server's CA so the
	// server cache has never seen it (no enrollment pre-warm).
	rnd := rand.New(rand.NewSource(99))
	identity := []byte("cold-start-node")
	req, err := repro.RequestCert(rnd, identity)
	if err != nil {
		t.Fatal(err)
	}
	cert, contrib, err := s.ca.Issue(req.Bytes(), identity, rnd)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := repro.ReconstructPrivateKey(req, cert, contrib, s.ca.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("cold start"))
	sig, _, err := repro.SignRecoverable(nil, priv, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	payload := frame.AppendCertVerify(nil, cert.Bytes(), identity, sig.Bytes(), digest[:])

	const clients = 8
	conns := make([]*frame.Conn, clients)
	for i := range conns {
		conns[i] = dialFrame(t, addr)
	}
	builds := s.m.cacheBuilds.Load()
	lookups := s.m.cacheHits.Load() + s.m.cacheMisses.Load()

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			f, err := conns[i].Roundtrip(uint64(i+1), frame.TCertVerify, payload)
			if err != nil {
				errs <- err
				return
			}
			if f.Type != frame.TOK || !bytes.Equal(f.Payload, []byte{1}) {
				errs <- &badFrameError{typ: f.Type}
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent certverify: %v", err)
	}

	if got := s.m.cacheBuilds.Load(); got != builds+1 {
		t.Fatalf("cacheBuilds = %d, want exactly %d (singleflight)", got, builds+1)
	}
	if got := s.m.cacheHits.Load() + s.m.cacheMisses.Load(); got != lookups+clients {
		t.Fatalf("hits+misses = %d, want %d", got, lookups+clients)
	}
}

// badFrameError carries an unexpected frame type out of a goroutine.
type badFrameError struct{ typ byte }

func (e *badFrameError) Error() string {
	return fmt.Sprintf("unexpected response type %#x", e.typ)
}

// TestServeDrainDuringEnroll races enrollments against shutdown: every
// in-flight enrollment must either complete (TOK) or be refused
// cleanly (TDraining / connection close), and the drain must
// terminate.
func TestServeDrainDuringEnroll(t *testing.T) {
	s, addr := startTestServer(t, serverConfig{Window: 100 * time.Microsecond})
	fc := dialFrame(t, addr)

	f, err := fc.Roundtrip(1, frame.TPing)
	if err != nil || f.Type != frame.TOK {
		t.Fatalf("ping: type %#x err %v", f.Type, err)
	}
	serverPub, err := repro.NewPublicKey(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	// Prove the path works before racing it.
	enrollOnce(t, fc, serverPub, []byte("drain-node"), 11)

	req, err := repro.RequestCert(rand.New(rand.NewSource(12)), []byte("drain-node"))
	if err != nil {
		t.Fatal(err)
	}
	payload := frame.AppendEnroll(nil, req.Bytes(), []byte("drain-node"))

	drained := make(chan struct{})
	go func() {
		s.shutdown()
		close(drained)
	}()

	sawRefusal := false
	for i := 0; i < 5000 && !sawRefusal; i++ {
		f, err := fc.Roundtrip(uint64(100+i), frame.TEnroll, payload)
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
	}
	if !sawRefusal {
		t.Fatal("never observed TDraining or connection close during drain")
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete during enrollment traffic")
	}
}
