package repro

// ECQV implicit certificates (SEC 4) on the opaque-key API: the
// public surface over internal/ecqv. An implicit certificate is a
// single compressed curve point — 31 bytes on the wire against the
// several-hundred-byte floor of an X.509 certificate — and the
// certified public key is not transported at all: any verifier
// computes ("extracts") it as Q_U = H(Cert)·P_cert + Q_CA. That makes
// certificate verification a scalar multiplication plus a point
// addition, which is exactly the shape the batch engine amortises;
// see BatchEngine.ExtractPublicKey and BatchExtractPublicKeys.
//
// Lifecycle (see the README's "Certificates" section for the wire
// diagram):
//
//	requester:  req, _ := repro.RequestCert(rand, identity)
//	            → send req.Bytes() and identity to the CA
//	CA:         cert, contrib, _ := ca.Issue(reqBytes, identity, rand)
//	            → return cert.Bytes() and contrib to the requester
//	holder:     priv, _ := repro.ReconstructPrivateKey(req, cert, contrib, caPub)
//	verifier:   pub, _ := repro.ExtractPublicKey(cert, caPub)
//
// The holder's reconstructed private key and any verifier's extracted
// public key form a valid pair by construction; Reconstruct checks
// the pairing explicitly so a corrupt CA response errors instead of
// yielding a key that cannot sign.

import (
	"io"
	"math/big"

	"repro/internal/ecqv"
	"repro/internal/engine"
)

// Certificate sizes and bounds.
const (
	// CertSize is the fixed wire size of an implicit certificate: one
	// compressed point, (0x02|ỹ) || x.
	CertSize = ecqv.CertSize
	// MinCertIdentity and MaxCertIdentity bound the length of a
	// certified identity (an opaque byte string: device ID, EUI-64...).
	MinCertIdentity = ecqv.MinIdentity
	MaxCertIdentity = ecqv.MaxIdentity
)

// Certificate lifecycle errors.
var (
	// ErrInvalidCert reports a certificate rejected by parsing or
	// validation (framing, off-curve or small-order point, degenerate
	// hash).
	ErrInvalidCert = ecqv.ErrInvalidCert
	// ErrInvalidIdentity reports an identity outside the documented
	// length bounds.
	ErrInvalidIdentity = ecqv.ErrInvalidIdentity
	// ErrInvalidCertRequest reports a certificate-request point that
	// failed validation.
	ErrInvalidCertRequest = ecqv.ErrInvalidRequest
	// ErrCertMismatch reports CA response data whose reconstructed
	// private key does not match the certificate.
	ErrCertMismatch = ecqv.ErrReconstructMismatch
)

// Cert is a validated implicit certificate: a subgroup point plus the
// identity it certifies. Immutable after construction; obtain one
// from ParseCert, ParseCertDER or CA.Issue.
type Cert struct {
	c *ecqv.Cert
}

// ParseCert parses the 31-byte compressed wire encoding of a
// certificate for the given identity. Hostile input is rejected
// before any group operation: framing first, then curve membership
// (decompression solvability), then the prime-order subgroup check.
func ParseCert(wire, identity []byte) (*Cert, error) {
	c, err := ecqv.ParseCert(wire, identity)
	if err != nil {
		return nil, err
	}
	return &Cert{c: c}, nil
}

// ParseCertDER parses the canonical DER interchange encoding
// (SEQUENCE { OCTET STRING identity, OCTET STRING point }),
// rejecting every non-canonical variant by exact re-encoding.
func ParseCertDER(der []byte) (*Cert, error) {
	c, err := ecqv.ParseCertDER(der)
	if err != nil {
		return nil, err
	}
	return &Cert{c: c}, nil
}

// Bytes returns the fixed 31-byte compressed wire encoding.
func (c *Cert) Bytes() []byte { return c.c.Bytes() }

// MarshalDER returns the canonical DER interchange encoding.
func (c *Cert) MarshalDER() ([]byte, error) { return c.c.MarshalDER() }

// Identity returns a copy of the certified identity.
func (c *Cert) Identity() []byte {
	id := make([]byte, len(c.c.Identity))
	copy(id, c.c.Identity)
	return id
}

// Point returns the certificate point P_cert. It is a validated
// subgroup point, but NOT the certified public key — extract that
// with ExtractPublicKey.
func (c *Cert) Point() Point { return c.c.Point }

// CertRequest is a pending certificate request: the requester's
// ephemeral secret and the identity it wants certified. The secret
// never leaves the struct — only Bytes (the public request point)
// goes to the CA — and is consumed by ReconstructPrivateKey.
type CertRequest struct {
	priv     *PrivateKey
	identity []byte
}

// RequestCert draws the ephemeral request pair for identity from
// rand (crypto/rand.Reader in production). Send Bytes() and the
// identity to the CA; keep the request for ReconstructPrivateKey.
// The ephemeral secret must be unpredictable — it is a share of the
// final private key — so unlike issuance there is no deterministic
// option on the requester side.
func RequestCert(rand io.Reader, identity []byte) (*CertRequest, error) {
	if len(identity) < MinCertIdentity || len(identity) > MaxCertIdentity {
		return nil, ErrInvalidIdentity
	}
	k, err := ecqv.NewRequest(rand)
	if err != nil {
		return nil, err
	}
	id := make([]byte, len(identity))
	copy(id, identity)
	return &CertRequest{priv: wrapKey(k), identity: id}, nil
}

// Bytes returns the compressed public request point R_U (CertSize
// bytes) — the value transmitted to the CA.
func (req *CertRequest) Bytes() []byte { return req.priv.pub.BytesCompressed() }

// Identity returns a copy of the requested identity.
func (req *CertRequest) Identity() []byte {
	id := make([]byte, len(req.identity))
	copy(id, req.identity)
	return id
}

// CA issues implicit certificates under a private key. Obtain one
// with NewCA; methods are safe for concurrent use (the underlying key
// is immutable).
type CA struct {
	ca   *ecqv.CA
	priv *PrivateKey
}

// NewCA wraps an issuing key pair as a certificate authority.
func NewCA(priv *PrivateKey) *CA {
	return &CA{ca: ecqv.NewCA(priv.key), priv: priv}
}

// PublicKey returns the CA public key Q_CA — the anchor every
// extraction needs.
func (ca *CA) PublicKey() *PublicKey { return ca.priv.pub }

// Issue creates an implicit certificate over an encoded request point
// (compressed or uncompressed, validated exactly like any public key)
// for identity. It returns the certificate and the private-key
// reconstruction value contrib (PrivateKeySize bytes) — both go back
// to the requester; neither is secret, but contrib must arrive
// intact (ReconstructPrivateKey detects tampering).
//
// Nonces come from rand; nil rand selects a deterministic nonce from
// the signing module's HMAC-DRBG keyed by the CA private key and the
// request — reproducible issuance for RNG-poor deployments and test
// vectors, mirroring the nil-rand contract of PrivateKey.Sign.
func (ca *CA) Issue(reqPoint, identity []byte, rand io.Reader) (*Cert, []byte, error) {
	rp, err := NewPublicKey(reqPoint)
	if err != nil {
		return nil, nil, ErrInvalidCertRequest
	}
	cert, r, err := ca.ca.Issue(rp.point, identity, rand)
	if err != nil {
		return nil, nil, err
	}
	contrib := make([]byte, PrivateKeySize)
	r.FillBytes(contrib)
	return &Cert{c: cert}, contrib, nil
}

// ReconstructPrivateKey computes the holder's key pair from the CA
// response: d_U = H(Cert)·k_U + contrib mod n. It verifies that
// d_U·G equals the extracted public key before returning, so a
// corrupt or malicious CA response fails with ErrCertMismatch instead
// of producing an unusable key.
func ReconstructPrivateKey(req *CertRequest, cert *Cert, contrib []byte, caPub *PublicKey) (*PrivateKey, error) {
	if len(contrib) != PrivateKeySize {
		return nil, ErrCertMismatch
	}
	d, err := ecqv.Reconstruct(req.priv.key, cert.c, new(big.Int).SetBytes(contrib), caPub.point)
	if err != nil {
		return nil, err
	}
	return wrapKey(d), nil
}

// ExtractPublicKey computes the certified public key
// Q_U = H(Cert)·P_cert + Q_CA — the one-shot verifier-side
// operation. The result is fully validated (subgroup membership via
// the halving-trace test) before it is wrapped, so extracted keys are safe
// for every subgroup-assuming path, Precompute included. Servers
// extracting at scale batch this through
// BatchEngine.ExtractPublicKey / BatchExtractPublicKeys instead.
func ExtractPublicKey(cert *Cert, caPub *PublicKey) (*PublicKey, error) {
	q, err := ecqv.Extract(cert.c, caPub.point)
	if err != nil {
		return nil, err
	}
	return &PublicKey{point: q}, nil
}

// ExtractPublicKey computes the certified public key through the
// batch engine: the extraction ladder's table normalisations and the
// final projective-to-affine conversion ride batch-wide inversions
// shared with whatever else is in flight, and the output is
// subgroup-validated inside the kernel (the halving-trace test)
// before it is wrapped. Semantics match the package-level
// ExtractPublicKey; the error is ErrInvalidCert for a rejected
// certificate and an engine-lifecycle error (ErrEngineClosed, a
// recovered batch panic) otherwise.
func (b *BatchEngine) ExtractPublicKey(cert *Cert, caPub *PublicKey) (*PublicKey, error) {
	d := cert.c.Digest(caPub.point)
	q, err := b.e.Extract(cert.c.Point, caPub.point, d[:])
	if err != nil {
		return nil, mapExtractErr(err)
	}
	return &PublicKey{point: q}, nil
}

// CertExtractResult is one BatchExtractPublicKeys outcome.
type CertExtractResult struct {
	Pub *PublicKey
	Err error
}

// BatchExtractPublicKeys extracts the certified public key of every
// certificate under one CA with the batch kernel (see
// BatchEngine.ExtractPublicKey for the amortisation), writing
// outcomes into out (len(out) == len(certs)). Corrupt certificates
// fail individually with ErrInvalidCert; the rest of the batch is
// unaffected.
func BatchExtractPublicKeys(certs []*Cert, caPub *PublicKey, out []CertExtractResult) {
	if len(out) != len(certs) {
		panic("repro: BatchExtractPublicKeys length mismatch")
	}
	pts := make([]Point, len(certs))
	digests := make([][]byte, len(certs))
	res := make([]engine.ExtractResult, len(certs))
	for i, c := range certs {
		pts[i] = c.c.Point
		d := c.c.Digest(caPub.point)
		digests[i] = d[:]
	}
	engine.BatchExtract(pts, caPub.point, digests, res)
	for i := range res {
		if res[i].Err != nil {
			out[i].Pub, out[i].Err = nil, mapExtractErr(res[i].Err)
			continue
		}
		out[i].Pub, out[i].Err = &PublicKey{point: res[i].Pub}, nil
	}
}

// mapExtractErr folds the kernel's certificate-rejection errors onto
// the public ErrInvalidCert, passing engine-lifecycle errors through.
func mapExtractErr(err error) error {
	switch err {
	case engine.ErrExtractPoint, engine.ErrExtractDegenerate:
		return ErrInvalidCert
	}
	return err
}
