package repro

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"
)

// TestCertLifecycle walks the full opaque-API certificate lifecycle:
// request → issue → reconstruct → extract, then proves the
// reconstructed private key and the extracted public key are a working
// signature pair through both the one-shot and the batch-engine
// extraction paths, with the extracted key's precomputed verify table
// in play — the exact shape the serving stack uses.
func TestCertLifecycle(t *testing.T) {
	rnd := rand.New(rand.NewSource(101))
	caKey, err := GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	ca := NewCA(caKey)
	identity := []byte("node-7f3a")

	req, err := RequestCert(rnd, identity)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Bytes()) != CertSize {
		t.Fatalf("request point is %d bytes, want %d", len(req.Bytes()), CertSize)
	}
	cert, contrib, err := ca.Issue(req.Bytes(), identity, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.Bytes()) != CertSize {
		t.Fatalf("certificate is %d bytes, want %d", len(cert.Bytes()), CertSize)
	}
	if len(contrib) != PrivateKeySize {
		t.Fatalf("contribution is %d bytes, want %d", len(contrib), PrivateKeySize)
	}
	if !bytes.Equal(cert.Identity(), identity) {
		t.Fatal("certificate identity diverged")
	}

	priv, err := ReconstructPrivateKey(req, cert, contrib, ca.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ExtractPublicKey(cert, ca.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Equal(priv.PublicKey()) {
		t.Fatal("extracted key does not match the reconstructed key")
	}

	// The pair signs and verifies, including over the precomputed
	// table an eccserve cache entry would carry.
	digest := sha256.Sum256([]byte("certified message"))
	sig, err := SignDeterministic(priv, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	pub.Precompute()
	if !pub.Verify(digest[:], sig) {
		t.Fatal("extracted key rejected a signature by the reconstructed key")
	}

	// Batch-engine extraction agrees with the one-shot path.
	e := NewBatchEngine()
	defer e.Close()
	epub, err := e.ExtractPublicKey(cert, ca.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if !epub.Equal(pub) {
		t.Fatal("engine extraction diverged from one-shot extraction")
	}

	// Wire and DER round trips preserve the certificate.
	back, err := ParseCert(cert.Bytes(), identity)
	if err != nil {
		t.Fatal(err)
	}
	der, err := cert.MarshalDER()
	if err != nil {
		t.Fatal(err)
	}
	dback, err := ParseCertDER(der)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Cert{back, dback} {
		p, err := ExtractPublicKey(c, ca.PublicKey())
		if err != nil || !p.Equal(pub) {
			t.Fatal("round-tripped certificate extracts a different key")
		}
	}
}

// TestCertForgeryRegression pins the PR 7 torsion lesson onto the
// certificate surface: the compressed encodings of every small-order
// point — and their flipped-bit variants — are rejected by ParseCert
// and ParseCertDER, so a forged certificate can never reach an
// extraction ladder, batched or not. (The kernel additionally
// re-validates below the parsing layer; see the engine tests.)
func TestCertForgeryRegression(t *testing.T) {
	// Compressed encodings of (0,1), (1,0), (1,1): x with the ỹ bit 0/1.
	torsion := make([][]byte, 0, 6)
	for _, enc := range [][]byte{
		append([]byte{0x02}, make([]byte, 30)...),                                               // x = 0
		func() []byte { b := append([]byte{0x02}, make([]byte, 30)...); b[30] = 1; return b }(), // x = 1
	} {
		torsion = append(torsion, enc)
		flipped := bytes.Clone(enc)
		flipped[0] = 0x03
		torsion = append(torsion, flipped)
	}
	for i, wire := range torsion {
		if _, err := ParseCert(wire, []byte("forged")); !errors.Is(err, ErrInvalidCert) {
			t.Fatalf("torsion encoding %d: got %v, want ErrInvalidCert", i, err)
		}
	}
	// A tampered wire certificate is rejected or extracts a different,
	// still-valid key — never a predictable one (there is nothing to
	// check beyond parse validation, since extraction re-derives the
	// key from the bytes).
	rnd := rand.New(rand.NewSource(103))
	caKey, _ := GenerateKey(rnd)
	ca := NewCA(caKey)
	req, _ := RequestCert(rnd, []byte("victim"))
	cert, _, err := ca.Issue(req.Bytes(), []byte("victim"), rnd)
	if err != nil {
		t.Fatal(err)
	}
	// Identity substitution: same bytes, different identity must either
	// fail to parse (never — framing is identity-independent) or
	// extract a key unrelated to the victim's.
	victim, err := ExtractPublicKey(cert, ca.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	imposter, err := ParseCert(cert.Bytes(), []byte("imposter"))
	if err != nil {
		t.Fatal(err)
	}
	ipub, err := ExtractPublicKey(imposter, ca.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if ipub.Equal(victim) {
		t.Fatal("identity substitution extracted the victim's key")
	}
}

// TestBatchExtractPublicKeysAPI covers the slice API: agreement with
// the one-shot extractor across a batch, the length-mismatch panic,
// and ErrEngineClosed from the per-request engine path after Close.
func TestBatchExtractPublicKeysAPI(t *testing.T) {
	rnd := rand.New(rand.NewSource(104))
	caKey, _ := GenerateKey(rnd)
	ca := NewCA(caKey)
	certs := make([]*Cert, 16)
	want := make([]*PublicKey, len(certs))
	for i := range certs {
		id := []byte{byte(i), 0xa5}
		req, err := RequestCert(rnd, id)
		if err != nil {
			t.Fatal(err)
		}
		cert, _, err := ca.Issue(req.Bytes(), id, rnd)
		if err != nil {
			t.Fatal(err)
		}
		certs[i] = cert
		want[i], err = ExtractPublicKey(cert, ca.PublicKey())
		if err != nil {
			t.Fatal(err)
		}
	}
	out := make([]CertExtractResult, len(certs))
	BatchExtractPublicKeys(certs, ca.PublicKey(), out)
	for i := range out {
		if out[i].Err != nil || !out[i].Pub.Equal(want[i]) {
			t.Fatalf("batch entry %d diverged (err %v)", i, out[i].Err)
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("length mismatch did not panic")
			}
		}()
		BatchExtractPublicKeys(certs, ca.PublicKey(), out[:1])
	}()

	e := NewBatchEngine()
	e.Close()
	if _, err := e.ExtractPublicKey(certs[0], ca.PublicKey()); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("closed engine: got %v, want ErrEngineClosed", err)
	}
}

// TestIssueRejections covers CA-side input validation: bad request
// points and out-of-bounds identities.
func TestIssueRejections(t *testing.T) {
	rnd := rand.New(rand.NewSource(105))
	caKey, _ := GenerateKey(rnd)
	ca := NewCA(caKey)
	req, _ := RequestCert(rnd, []byte("ok"))

	if _, _, err := ca.Issue([]byte{0x00}, []byte("ok"), rnd); !errors.Is(err, ErrInvalidCertRequest) {
		t.Fatalf("infinity request point: got %v, want ErrInvalidCertRequest", err)
	}
	if _, _, err := ca.Issue(req.Bytes()[:CertSize-1], []byte("ok"), rnd); !errors.Is(err, ErrInvalidCertRequest) {
		t.Fatalf("truncated request point: got %v, want ErrInvalidCertRequest", err)
	}
	if _, _, err := ca.Issue(req.Bytes(), nil, rnd); !errors.Is(err, ErrInvalidIdentity) {
		t.Fatalf("empty identity: got %v, want ErrInvalidIdentity", err)
	}
	if _, _, err := ca.Issue(req.Bytes(), make([]byte, MaxCertIdentity+1), rnd); !errors.Is(err, ErrInvalidIdentity) {
		t.Fatalf("oversized identity: got %v, want ErrInvalidIdentity", err)
	}
	if _, err := RequestCert(rnd, make([]byte, MaxCertIdentity+1)); !errors.Is(err, ErrInvalidIdentity) {
		t.Fatalf("oversized request identity: got %v, want ErrInvalidIdentity", err)
	}

	// Tampered contribution fails reconstruction explicitly.
	cert, contrib, err := ca.Issue(req.Bytes(), []byte("ok"), rnd)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(contrib)
	bad[len(bad)-1] ^= 1
	if _, err := ReconstructPrivateKey(req, cert, bad, ca.PublicKey()); !errors.Is(err, ErrCertMismatch) {
		t.Fatalf("tampered contribution: got %v, want ErrCertMismatch", err)
	}
	if _, err := ReconstructPrivateKey(req, cert, contrib[:10], ca.PublicKey()); !errors.Is(err, ErrCertMismatch) {
		t.Fatalf("short contribution: got %v, want ErrCertMismatch", err)
	}
}
