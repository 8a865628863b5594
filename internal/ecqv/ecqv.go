// Package ecqv implements ECQV implicit certificates (SEC 4) over
// sect233k1 — the certificate shape the paper's WSN setting actually
// wants: the certificate IS a 31-byte compressed point, and extracting
// the certified public key costs one scalar multiplication plus one
// point addition, the exact algebraic shape the repo's ladders and
// batch kernel were built for.
//
// Protocol roles and algebra (notation per SEC 4):
//
//	requester: draws an ephemeral pair (k_U, R_U = k_U·G) and sends
//	           (R_U, identity) to the CA;
//	CA:        draws k, forms the certificate point P_U = R_U + k·G,
//	           computes e = H(Cert_U) and the private-key
//	           reconstruction value r = e·k + d_CA mod n;
//	holder:    reconstructs d_U = e·k_U + r mod n;
//	verifier:  extracts Q_U = e·P_U + Q_CA.
//
// Correctness: d_U·G = e·k_U·G + e·k·G + d_CA·G = e·P_U + Q_CA = Q_U.
// The hash e binds the certificate point, the identity AND the CA
// public key, so a certificate cannot be replayed against a different
// CA or identity.
//
// Hostile inputs are rejected before any group operation touches them:
// certificate parsing enforces the exact 31-byte compressed framing,
// decompression solvability is the on-curve check, and the cofactor-4
// curve's small-order points are excluded by the halving-trace
// subgroup test (ecdh.ValidateTau → core.InSubgroup, ~1µs) — the same
// exact test the batch kernels run on keys, nonce points and
// extracted keys.
package ecqv

import (
	"crypto/sha256"
	"errors"
	"io"
	"math/big"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/ecdh"
	"repro/internal/gf233"
	"repro/internal/koblitz"
	"repro/internal/sign"
)

// CertSize is the wire size of an implicit certificate: one compressed
// point, (0x02|ỹ) || x.
const CertSize = 1 + gf233.ByteLen

// Identity length bounds. Identities are opaque byte strings (device
// IDs, EUI-64s, names); the upper bound keeps every enrollment payload
// comfortably inside one protocol frame.
const (
	MinIdentity = 1
	MaxIdentity = 64
)

// Errors returned by the certificate lifecycle.
var (
	// ErrInvalidCert reports a certificate rejected by parsing or
	// validation: wrong framing, off-curve or small-order point, or a
	// degenerate certificate hash.
	ErrInvalidCert = errors.New("ecqv: invalid certificate")
	// ErrInvalidIdentity reports an identity outside [MinIdentity,
	// MaxIdentity] bytes.
	ErrInvalidIdentity = errors.New("ecqv: invalid identity length")
	// ErrInvalidRequest reports a certificate-request point that failed
	// validation.
	ErrInvalidRequest = errors.New("ecqv: invalid certificate request")
	// ErrReconstructMismatch reports CA response data whose
	// reconstructed private key does not match the certificate — a
	// corrupt or malicious issuance.
	ErrReconstructMismatch = errors.New("ecqv: reconstructed key does not match certificate")
)

// Cert is a parsed, validated implicit certificate: the certificate
// point (on curve, not the identity, in the prime-order subgroup) and
// the identity it certifies.
type Cert struct {
	Point    ec.Affine
	Identity []byte
}

// hashPrefix domain-separates the certificate hash from every other
// SHA-256 use in the module.
var hashPrefix = []byte("ECQV-sect233k1-v1")

// NewCert validates (point, identity) as a certificate. The point must
// be on the curve, not the identity element, and in the prime-order
// subgroup; the identity length must be within bounds. The identity
// bytes are copied.
func NewCert(point ec.Affine, identity []byte) (*Cert, error) {
	if len(identity) < MinIdentity || len(identity) > MaxIdentity {
		return nil, ErrInvalidIdentity
	}
	if err := ecdh.ValidateTau(point); err != nil {
		return nil, ErrInvalidCert
	}
	id := make([]byte, len(identity))
	copy(id, identity)
	return &Cert{Point: point, Identity: id}, nil
}

// ParseCert parses the fixed 31-byte compressed wire encoding. The
// framing checks (length, compressed prefix) run before decompression,
// decompression solvability is the on-curve check, and the subgroup
// check runs before the point can reach any scalar.
func ParseCert(wire, identity []byte) (*Cert, error) {
	if len(wire) != CertSize {
		return nil, ErrInvalidCert
	}
	if wire[0] != 0x02 && wire[0] != 0x03 {
		// Infinity and uncompressed encodings are wire-illegal for
		// certificates even though ec.Decode accepts them for points.
		return nil, ErrInvalidCert
	}
	p, err := ec.Decode(wire)
	if err != nil {
		return nil, ErrInvalidCert
	}
	return NewCert(p, identity)
}

// Bytes returns the 31-byte compressed wire encoding.
func (c *Cert) Bytes() []byte { return c.Point.EncodeCompressed() }

// Digest computes the certificate hash input
//
//	SHA-256(prefix ‖ cert(31) ‖ len(identity) ‖ identity ‖ caPub(31))
//
// binding the certificate point, the certified identity and the
// issuing CA. HashScalar folds it into the scalar e.
func (c *Cert) Digest(caPub ec.Affine) [sha256.Size]byte {
	h := sha256.New()
	h.Write(hashPrefix)
	h.Write(c.Point.EncodeCompressed())
	h.Write([]byte{byte(len(c.Identity))})
	h.Write(c.Identity)
	h.Write(caPub.EncodeCompressed())
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// HashScalar computes e = H(Cert_U) as a scalar mod n (sign.HashToInt,
// the module's one digest-to-scalar mapping, which already returns
// e < n). e = 0 makes the certificate useless (extraction would ignore
// the certificate point); issuance retries it away, and the
// verifier-side paths reject it as ErrInvalidCert.
func (c *Cert) HashScalar(caPub ec.Affine) *big.Int {
	d := c.Digest(caPub)
	return sign.HashToInt(d[:])
}

// mulAdd returns e·k + d mod n for e, k, d in [0, n), computed on
// core's constant-time mod-n words: k is secret in both uses (the CA's
// nonce, the requester's ephemeral key), and so is d at issuance (the
// CA key) and the sum at reconstruction (the holder's key), so both
// word buffers are zeroed before returning.
func mulAdd(e, k, d *big.Int) *big.Int {
	var ew, kw, dw core.Residue
	ew.SetBig(e)
	kw.SetBig(k)
	dw.SetBig(d)
	r := kw.Mul(&ew, &kw).Add(&kw, &dw).Big(new(big.Int))
	clear(kw[:])
	clear(dw[:])
	return r
}

// NewRequest draws the requester's ephemeral pair (k_U, R_U = k_U·G).
// The public point R_U (reach it as the key's Public field) goes to
// the CA; k_U stays with the requester for Reconstruct.
func NewRequest(rand io.Reader) (*core.PrivateKey, error) {
	return core.GenerateKey(rand)
}

// CA issues implicit certificates under one private key.
type CA struct {
	priv *core.PrivateKey
}

// NewCA wraps an issuing key.
func NewCA(priv *core.PrivateKey) *CA { return &CA{priv: priv} }

// Public returns the CA public key point Q_CA.
func (ca *CA) Public() ec.Affine { return ca.priv.Public }

// issueNonceDigest seeds the deterministic issuance DRBG: the CA
// contribution k must differ per (request, identity), so the seed
// binds both.
func issueNonceDigest(reqPoint ec.Affine, identity []byte) []byte {
	h := sha256.New()
	h.Write([]byte("ECQV-issue-nonce"))
	h.Write(reqPoint.EncodeCompressed())
	h.Write([]byte{byte(len(identity))})
	h.Write(identity)
	return h.Sum(nil)
}

// Issue creates an implicit certificate over the requester's point
// R_U for identity, returning the certificate and the private-key
// reconstruction value r = e·k + d_CA mod n (transmit both to the
// requester; r is NOT secret to the holder but must reach it intact).
//
// Nonces k come from rand; nil rand selects a deterministic nonce from
// the signing module's HMAC-DRBG keyed by the CA private key and the
// (request, identity) pair — the RFC 6979 analogue for issuance, for
// RNG-poor deployments and reproducible test vectors.
//
// The crypto-impossible degenerate corners (P_U = ∞, e = 0) retry
// with a fresh nonce; with a deterministic reader the retry consumes
// the next DRBG output, so the loop still terminates.
func (ca *CA) Issue(reqPoint ec.Affine, identity []byte, rand io.Reader) (*Cert, *big.Int, error) {
	if len(identity) < MinIdentity || len(identity) > MaxIdentity {
		return nil, nil, ErrInvalidIdentity
	}
	if err := ecdh.ValidateTau(reqPoint); err != nil {
		return nil, nil, ErrInvalidRequest
	}
	if rand == nil {
		rand = sign.DeterministicNonceReader(ca.priv, issueNonceDigest(reqPoint, identity))
	}
	for {
		k, err := core.GenerateKey(rand)
		if err != nil {
			return nil, nil, err
		}
		// k.D is wiped on every exit from here: r = e·k + d_CA is public,
		// so the nonce is as secret as d_CA.
		pu := reqPoint.Add(k.Public)
		if pu.Inf {
			koblitz.WipeInt(k.D)
			continue // R_U = −k·G: the certificate point must be a point
		}
		cert, err := NewCert(pu, identity)
		if err != nil {
			// R_U and k·G are subgroup points, so P_U is too; unreachable,
			// kept as a hard stop rather than a silent loop.
			koblitz.WipeInt(k.D)
			return nil, nil, err
		}
		e := cert.HashScalar(ca.priv.Public)
		if e.Sign() == 0 {
			koblitz.WipeInt(k.D)
			continue // degenerate hash: reroll the certificate point
		}
		// r = e·k + d_CA mod n.
		r := mulAdd(e, k.D, ca.priv.D)
		koblitz.WipeInt(k.D)
		return cert, r, nil
	}
}

// Extract computes the certified public key Q_U = e·P_U + Q_CA — the
// verifier-side operation, needing only public data. The output is
// subgroup-validated (ecdh.ValidateTau) before it is returned: e·P_U
// and Q_CA are subgroup points so the sum always passes, but the
// validation makes "keys leaving Extract are safe for the
// subgroup-assuming kernels" a checked property rather than an
// argument. The halving-trace test makes that check ~1µs of the
// ~59µs extraction.
func Extract(cert *Cert, caPub ec.Affine) (ec.Affine, error) {
	e := cert.HashScalar(caPub)
	if e.Sign() == 0 {
		return ec.Infinity, ErrInvalidCert
	}
	q := core.ScalarMult(e, cert.Point).Add(caPub)
	if err := ecdh.ValidateTau(q); err != nil {
		return ec.Infinity, ErrInvalidCert
	}
	return q, nil
}

// Reconstruct computes the holder's private key d_U = e·k_U + r mod n
// from the ephemeral request key and the CA response, and verifies
// d_U·G equals the extracted public key Q_U before returning — a
// corrupt or malicious CA response fails here instead of producing a
// key pair that cannot sign.
func Reconstruct(reqPriv *core.PrivateKey, cert *Cert, r *big.Int, caPub ec.Affine) (*core.PrivateKey, error) {
	if r == nil || r.Sign() < 0 || r.Cmp(ec.Order) >= 0 {
		return nil, ErrReconstructMismatch
	}
	e := cert.HashScalar(caPub)
	if e.Sign() == 0 {
		return nil, ErrInvalidCert
	}
	d := mulAdd(e, reqPriv.D, r)
	// CheckScalar (inside NewPrivateKey) rejects d = 0, the remaining
	// degenerate corner.
	priv, err := core.NewPrivateKey(d)
	if err != nil {
		return nil, ErrReconstructMismatch
	}
	q, err := Extract(cert, caPub)
	if err != nil {
		return nil, err
	}
	if !priv.Public.Equal(q) {
		return nil, ErrReconstructMismatch
	}
	return priv, nil
}
