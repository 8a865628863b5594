package repro

// Opaque key types, shaped after crypto/ecdh: keys are constructed
// from validated byte encodings (or drawn from a random source) and
// never expose their internals mutably. *PrivateKey implements
// crypto.Signer, so the library drops into any stack written against
// Go's crypto interfaces.

import (
	"crypto"
	"crypto/subtle"
	"errors"
	"io"
	"math/big"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/ecdh"
	"repro/internal/sign"
)

// Key and point encoding lengths, all derived from the 30-byte
// field-element width (gf233.ByteLen, via sign.ScalarSize).
const (
	// PrivateKeySize is the length of a serialized private scalar
	// (fixed width, big-endian).
	PrivateKeySize = sign.ScalarSize
	// PublicKeySize is the length of the X9.62 uncompressed public-key
	// encoding 0x04 || x || y.
	PublicKeySize = 1 + 2*sign.ScalarSize
	// PublicKeyCompressedSize is the length of the compressed
	// public-key encoding (0x02|ỹ) || x — the format for the paper's
	// WSN radio link.
	PublicKeyCompressedSize = 1 + sign.ScalarSize
)

// Errors returned by the key constructors.
var (
	errInvalidKey       = errors.New("repro: invalid private key encoding")
	errInvalidPublicKey = errors.New("repro: invalid public key")
)

// PublicKey is a sect233k1 public key: a validated point on the curve,
// never the identity, always a member of the prime-order subgroup.
// The zero value is not usable; obtain keys from NewPublicKey,
// PrivateKey.PublicKey or PublicKeyFromPoint.
type PublicKey struct {
	point ec.Affine
	// precomp is the optional wide-window verification table built by
	// Precompute. Stored through an atomic so Verify paths can read it
	// lock-free while a late Precompute races in; the table itself is
	// immutable once published.
	precomp atomic.Pointer[core.FixedBase]
}

// NewPublicKey parses an encoded public key, accepting both the
// X9.62 uncompressed (0x04 || x || y, 61 bytes) and compressed
// ((0x02|ỹ) || x, 31 bytes) encodings. The point is fully validated:
// on the curve, not the identity, and in the prime-order subgroup
// (the curve has cofactor 4), so a key returned here is safe to use
// against a private scalar without further checks.
func NewPublicKey(b []byte) (*PublicKey, error) {
	p, err := ec.Decode(b)
	if err != nil {
		return nil, errInvalidPublicKey
	}
	if err := ecdh.ValidateTau(p); err != nil {
		return nil, errInvalidPublicKey
	}
	return &PublicKey{point: p}, nil
}

// PublicKeyFromPoint wraps an affine point as a PublicKey after the
// same full validation NewPublicKey performs. It is the bridge from
// the point-level API (ScalarMult and friends) into the opaque-key
// world.
func PublicKeyFromPoint(p Point) (*PublicKey, error) {
	if err := ecdh.ValidateTau(p); err != nil {
		return nil, errInvalidPublicKey
	}
	return &PublicKey{point: p}, nil
}

// Bytes returns the X9.62 uncompressed encoding of the key
// (PublicKeySize bytes).
func (pub *PublicKey) Bytes() []byte { return pub.point.Encode() }

// BytesCompressed returns the compressed encoding of the key
// (PublicKeyCompressedSize bytes).
func (pub *PublicKey) BytesCompressed() []byte { return pub.point.EncodeCompressed() }

// Point returns the affine point of the key, for use with the
// point-level API (ScalarMult, ValidatePoint, ...). Validation already
// happened at construction, so the returned point may be fed to the
// fast subgroup-assuming paths directly.
func (pub *PublicKey) Point() Point { return pub.point }

// Precompute builds and caches a wide-window (w = 10, 256-point,
// 18 KiB) α-multiple table for this key, which every verification
// path — pub.Verify, pub.VerifyASN1, BatchEngine.VerifyKey — then
// consults automatically: the per-verification table build disappears
// and the signer-side additions drop by roughly a third, worth ~1.5x
// on one-shot verification. The build costs about two scalar
// multiplications (~0.12 ms on a 2-vCPU Xeon VM) and breaks even at
// about five verifications with the key; for a key parsed to verify
// one or two messages it does not pay, which is why it is explicit
// rather than automatic. A server holding many keys decides per key:
// cmd/eccserve builds the table on a key's fifth recent use.
//
// Precompute is idempotent and safe to call concurrently; racing
// builders may both do the work, but all verifiers observe a frozen,
// published table.
func (pub *PublicKey) Precompute() {
	if pub.precomp.Load() == nil {
		pub.precomp.Store(core.NewFixedBase(pub.point, core.WPrecomp))
	}
}

// verifyTable returns the cached verification table, or nil before
// Precompute.
func (pub *PublicKey) verifyTable() *core.FixedBase { return pub.precomp.Load() }

// Equal reports whether pub and x are the same key. It accepts any
// crypto.PublicKey (per the crypto.Signer contract) and reports false
// for foreign types.
func (pub *PublicKey) Equal(x crypto.PublicKey) bool {
	xx, ok := x.(*PublicKey)
	if !ok || xx == nil {
		return false
	}
	return pub.point.Equal(xx.point)
}

// PrivateKey is a sect233k1 key pair. The secret scalar is held
// privately — serialize with Bytes, reconstruct with NewPrivateKey.
// *PrivateKey implements crypto.Signer; signatures produced through
// that interface are ASN.1 DER (see SignASN1).
//
// All methods are safe for concurrent use: a key is immutable after
// construction.
type PrivateKey struct {
	key *core.PrivateKey
	pub *PublicKey
}

// wrapKey adopts a validated internal key pair.
func wrapKey(k *core.PrivateKey) *PrivateKey {
	return &PrivateKey{key: k, pub: &PublicKey{point: k.Public}}
}

// GenerateKey draws a uniform key pair from the random source.
func GenerateKey(rand io.Reader) (*PrivateKey, error) {
	k, err := core.GenerateKey(rand)
	if err != nil {
		return nil, err
	}
	return wrapKey(k), nil
}

// GenerateKeyHardened is GenerateKey on the constant-time path: the
// same rejection sampler consuming the same bytes from rand (so the
// drawn scalar is identical for a given stream), with the public
// point derived by the constant-time comb. The returned key is
// hardened — see Hardened for what that means.
func GenerateKeyHardened(rand io.Reader) (*PrivateKey, error) {
	k, err := core.GenerateKeyCT(rand)
	if err != nil {
		return nil, err
	}
	return wrapKey(k), nil
}

// Hardened returns a view of the key on which every secret-scalar
// operation — Sign, ECDH, SharedSecret, and the batch-engine signing
// and ECDH paths — runs through the constant-time evaluators: a
// fixed-length Montgomery ladder for ECDH, full masked table scans
// instead of secret-indexed loads for the signing comb, branchless
// group arithmetic, and fixed-iteration mod-n inversion. Signatures
// and shared secrets are byte-identical to the fast path (for the same
// nonce stream); a one-shot shared secret costs 1.5–1.7× the fast one
// and a signature ~2.1× — see the README's "Hardened mode" section for
// what is and is not covered. Verification is unaffected: it handles
// only public inputs.
//
// The receiver is unchanged (keys are immutable); the returned key
// shares its scalar and public key with the receiver. Calling
// Hardened on an already-hardened key returns the receiver.
func (priv *PrivateKey) Hardened() *PrivateKey {
	if priv.key.ConstTime {
		return priv
	}
	k := *priv.key
	k.ConstTime = true
	return &PrivateKey{key: &k, pub: priv.pub}
}

// IsHardened reports whether this key routes its secret-scalar
// operations through the constant-time evaluators (see Hardened).
func (priv *PrivateKey) IsHardened() bool { return priv.key.ConstTime }

// NewPrivateKey reconstructs a key pair from a serialized scalar
// (PrivateKeySize bytes, big-endian, fixed width), recomputing the
// public point. The scalar range 0 < d < n is enforced by
// internal/core — the single place private-scalar validation lives.
func NewPrivateKey(b []byte) (*PrivateKey, error) {
	if len(b) != PrivateKeySize {
		return nil, errInvalidKey
	}
	k, err := core.NewPrivateKey(new(big.Int).SetBytes(b))
	if err != nil {
		return nil, errInvalidKey
	}
	return wrapKey(k), nil
}

// Bytes returns the big-endian fixed-width encoding of the private
// scalar (PrivateKeySize bytes).
func (priv *PrivateKey) Bytes() []byte {
	out := make([]byte, PrivateKeySize)
	priv.key.D.FillBytes(out)
	return out
}

// Public returns the corresponding public key as a crypto.PublicKey,
// implementing crypto.Signer. The concrete type is *PublicKey.
func (priv *PrivateKey) Public() crypto.PublicKey { return priv.pub }

// PublicKey returns the corresponding public key with its concrete
// type — the non-interface twin of Public.
func (priv *PrivateKey) PublicKey() *PublicKey { return priv.pub }

// Equal reports whether priv and x hold the same secret scalar. The
// scalar comparison runs in constant time.
func (priv *PrivateKey) Equal(x crypto.PrivateKey) bool {
	xx, ok := x.(*PrivateKey)
	if !ok || xx == nil {
		return false
	}
	return subtle.ConstantTimeCompare(priv.Bytes(), xx.Bytes()) == 1
}

// Sign implements crypto.Signer: it signs the (pre-hashed) digest and
// returns the ASN.1 DER encoding of the signature. opts is accepted
// for interface compatibility; the digest is used as given, as in
// crypto/ecdsa. A nil rand selects the RFC 6979-style deterministic
// nonce (SignDeterministic) — the right choice on RNG-poor nodes.
func (priv *PrivateKey) Sign(rand io.Reader, digest []byte, opts crypto.SignerOpts) ([]byte, error) {
	var (
		sig *Signature
		err error
	)
	if rand == nil {
		sig, err = sign.SignDeterministic(priv.key, digest)
	} else {
		sig, err = sign.Sign(priv.key, digest, rand)
	}
	if err != nil {
		return nil, err
	}
	return sig.MarshalASN1()
}
