package ecqv

import (
	"bytes"
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/gf233"
	"repro/internal/sign"
)

// testRand returns a deterministic entropy source so failures replay.
func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// issueFor runs the full happy-path lifecycle once: request, issue,
// reconstruct, extract — failing the test on any step.
func issueFor(t *testing.T, rnd *rand.Rand, ca *CA, identity []byte) (*Cert, *core.PrivateKey, ec.Affine) {
	t.Helper()
	req, err := NewRequest(rnd)
	if err != nil {
		t.Fatal(err)
	}
	cert, r, err := ca.Issue(req.Public, identity, rnd)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	holder, err := Reconstruct(req, cert, r, ca.Public())
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	pub, err := Extract(cert, ca.Public())
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	return cert, holder, pub
}

// TestRoundTrip is the core ECQV property: the holder-reconstructed
// private key and the verifier-extracted public key form a valid
// pair, and signatures made with the one verify under the other —
// across all supported field backends.
func TestRoundTrip(t *testing.T) {
	prev := gf233.CurrentBackend()
	defer gf233.SetBackend(prev)
	for _, b := range []gf233.Backend{gf233.Backend64, gf233.BackendCLMUL} {
		if !gf233.Supported(b) {
			continue
		}
		gf233.SetBackend(b)
		rnd := testRand(int64(b) + 1)
		caKey, err := core.GenerateKey(rnd)
		if err != nil {
			t.Fatal(err)
		}
		ca := NewCA(caKey)
		for i := 0; i < 8; i++ {
			identity := make([]byte, 1+rnd.Intn(MaxIdentity))
			rnd.Read(identity)
			cert, holder, pub := issueFor(t, rnd, ca, identity)
			if !holder.Public.Equal(pub) {
				t.Fatalf("backend %v id %d: reconstructed key does not match extraction", b, i)
			}
			digest := sha256.Sum256(identity)
			sig, err := sign.SignDeterministic(holder, digest[:])
			if err != nil {
				t.Fatal(err)
			}
			if !sign.Verify(pub, digest[:], sig) {
				t.Fatalf("backend %v id %d: signature under reconstructed key rejected by extracted key", b, i)
			}
			// Wire round trip preserves everything.
			parsed, err := ParseCert(cert.Bytes(), identity)
			if err != nil {
				t.Fatalf("backend %v id %d: ParseCert: %v", b, i, err)
			}
			if !parsed.Point.Equal(cert.Point) || !bytes.Equal(parsed.Identity, cert.Identity) {
				t.Fatalf("backend %v id %d: wire round trip diverged", b, i)
			}
		}
	}
}

// TestDeterministicIssue pins the nil-rand DRBG contract: issuing the
// same request twice yields byte-identical certificates and
// reconstruction values, and a different identity yields different
// ones.
func TestDeterministicIssue(t *testing.T) {
	rnd := testRand(7)
	caKey, err := core.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	ca := NewCA(caKey)
	req, err := NewRequest(rnd)
	if err != nil {
		t.Fatal(err)
	}
	id := []byte("sensor-node-17")
	c1, r1, err := ca.Issue(req.Public, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, r2, err := ca.Issue(req.Public, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) || r1.Cmp(r2) != 0 {
		t.Fatal("deterministic issuance is not deterministic")
	}
	c3, r3, err := ca.Issue(req.Public, []byte("sensor-node-18"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(c1.Bytes(), c3.Bytes()) || r1.Cmp(r3) == 0 {
		t.Fatal("different identities issued identical certificates")
	}
	// The deterministic issuance still reconstructs and extracts.
	holder, err := Reconstruct(req, c1, r1, ca.Public())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := Extract(c1, ca.Public())
	if err != nil {
		t.Fatal(err)
	}
	if !holder.Public.Equal(pub) {
		t.Fatal("deterministic issuance round trip failed")
	}
}

// smallOrderPoints returns the non-identity points of the order-4
// torsion subgroup of K-233: (0, 1) of order 2, (1, 0) and (1, 1) of
// order 4 — on the curve, outside the prime-order subgroup.
func smallOrderPoints() []ec.Affine {
	return []ec.Affine{
		{X: gf233.Zero, Y: gf233.One},
		{X: gf233.One, Y: gf233.Zero},
		{X: gf233.One, Y: gf233.One},
	}
}

// TestParseCertRejections drives hostile wire inputs through
// ParseCert: framing violations, off-curve abscissae, and the
// small-order torsion points, which decompress fine but must be
// stopped by the subgroup check before any scalar touches them.
func TestParseCertRejections(t *testing.T) {
	id := []byte("id")
	rnd := testRand(11)
	caKey, _ := core.GenerateKey(rnd)
	ca := NewCA(caKey)
	cert, _, _ := issueFor(t, rnd, ca, id)
	wire := cert.Bytes()

	if _, err := ParseCert(wire, id); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	bad := [][]byte{
		nil,
		{},
		wire[:CertSize-1],
		append(bytes.Clone(wire), 0),
		{0x00}, // infinity byte is wire-legal for points, never for certs
	}
	// Uncompressed and infinity prefixes on a 31-byte frame.
	for _, p := range []byte{0x00, 0x01, 0x04, 0x05, 0xff} {
		w := bytes.Clone(wire)
		w[0] = p
		bad = append(bad, w)
	}
	for i, w := range bad {
		if _, err := ParseCert(w, id); err == nil {
			t.Fatalf("hostile framing %d accepted", i)
		}
	}
	// Identity bounds.
	if _, err := ParseCert(wire, nil); err == nil {
		t.Fatal("empty identity accepted")
	}
	if _, err := ParseCert(wire, make([]byte, MaxIdentity+1)); err == nil {
		t.Fatal("oversized identity accepted")
	}
	// Off-curve: an abscissa whose quadratic is unsolvable. Found by
	// scanning wire tweaks until decompression fails.
	found := false
	for b := 0; b < 255 && !found; b++ {
		w := bytes.Clone(wire)
		w[CertSize-1] ^= byte(b + 1)
		if _, err := ec.Decode(w); err != nil {
			if _, err := ParseCert(w, id); err == nil {
				t.Fatal("off-curve abscissa accepted")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("could not construct an off-curve abscissa")
	}
	// Small-order torsion points: on the curve, rejected by the
	// subgroup check.
	for i, p := range smallOrderPoints() {
		if !p.OnCurve() {
			t.Fatalf("torsion point %d not on curve", i)
		}
		enc := p.EncodeCompressed()
		if _, err := ParseCert(enc, id); err == nil {
			t.Fatalf("small-order point %d accepted as certificate", i)
		}
		// The other decompression bit too.
		enc[0] ^= 1
		if _, err := ParseCert(enc, id); err == nil {
			t.Fatalf("small-order point %d (flipped bit) accepted as certificate", i)
		}
	}
}

// TestReconstructRejectsTampering covers the CA-response integrity
// check: a flipped reconstruction value or a swapped certificate must
// fail, never produce a mismatched key pair.
func TestReconstructRejectsTampering(t *testing.T) {
	rnd := testRand(23)
	caKey, _ := core.GenerateKey(rnd)
	ca := NewCA(caKey)
	req, err := NewRequest(rnd)
	if err != nil {
		t.Fatal(err)
	}
	cert, r, err := ca.Issue(req.Public, []byte("node-a"), rnd)
	if err != nil {
		t.Fatal(err)
	}
	tampered := new(big.Int).Xor(r, big.NewInt(1))
	if _, err := Reconstruct(req, cert, tampered, ca.Public()); err == nil {
		t.Fatal("tampered reconstruction value accepted")
	}
	if _, err := Reconstruct(req, cert, new(big.Int).Neg(r), ca.Public()); err == nil {
		t.Fatal("negative reconstruction value accepted")
	}
	if _, err := Reconstruct(req, cert, new(big.Int).Add(r, ec.Order), ca.Public()); err == nil {
		t.Fatal("out-of-range reconstruction value accepted")
	}
	otherCert, _, err := ca.Issue(req.Public, []byte("node-b"), rnd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reconstruct(req, otherCert, r, ca.Public()); err == nil {
		t.Fatal("mismatched certificate accepted")
	}
	// Wrong ephemeral key: reconstruction must also fail.
	otherReq, _ := NewRequest(rnd)
	if _, err := Reconstruct(otherReq, cert, r, ca.Public()); err == nil {
		t.Fatal("foreign ephemeral key accepted")
	}
}

// TestCertDER pins the canonical-DER contract: round trip, and
// rejection of trailing data, BER length liberties and embedded
// hostile points.
func TestCertDER(t *testing.T) {
	rnd := testRand(31)
	caKey, _ := core.GenerateKey(rnd)
	ca := NewCA(caKey)
	cert, _, _ := issueFor(t, rnd, ca, []byte("der-node"))
	der, err := cert.MarshalDER()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCertDER(der)
	if err != nil {
		t.Fatalf("canonical DER rejected: %v", err)
	}
	if !parsed.Point.Equal(cert.Point) || !bytes.Equal(parsed.Identity, cert.Identity) {
		t.Fatal("DER round trip diverged")
	}
	bad := [][]byte{
		nil,
		{},
		der[:len(der)-1],
		append(bytes.Clone(der), 0),
		bytes.Repeat([]byte{0x30}, 8),
		make([]byte, maxCertDERSize+1),
	}
	// Long-form length where short form is canonical.
	long := append([]byte{0x30, 0x81}, der[1:]...)
	bad = append(bad, long)
	// Small-order point smuggled inside structurally valid DER.
	for _, p := range smallOrderPoints() {
		evil, err := ParseCert(cert.Bytes(), cert.Identity) // fresh copy
		if err != nil {
			t.Fatal(err)
		}
		evil.Point = p
		evilDER, err := evil.MarshalDER()
		if err != nil {
			t.Fatal(err)
		}
		bad = append(bad, evilDER)
	}
	for i, d := range bad {
		if _, err := ParseCertDER(d); err == nil {
			t.Fatalf("hostile DER %d accepted", i)
		}
	}
}

// TestHashScalarBindsEverything: changing the certificate point, the
// identity or the CA key must all change the certificate hash — the
// binding that prevents cross-CA and cross-identity replay.
func TestHashScalarBindsEverything(t *testing.T) {
	rnd := testRand(41)
	caKey, _ := core.GenerateKey(rnd)
	ca := NewCA(caKey)
	cert, _, _ := issueFor(t, rnd, ca, []byte("bind"))
	base := cert.HashScalar(ca.Public())

	other := &Cert{Point: cert.Point, Identity: []byte("bond")}
	if base.Cmp(other.HashScalar(ca.Public())) == 0 {
		t.Fatal("hash does not bind the identity")
	}
	ca2Key, _ := core.GenerateKey(rnd)
	if base.Cmp(cert.HashScalar(ca2Key.Public)) == 0 {
		t.Fatal("hash does not bind the CA key")
	}
	cert2, _, _ := issueFor(t, rnd, ca, []byte("bind"))
	if base.Cmp(cert2.HashScalar(ca.Public())) == 0 {
		t.Fatal("hash does not bind the certificate point")
	}
}
