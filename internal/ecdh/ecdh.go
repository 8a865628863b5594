// Package ecdh implements elliptic-curve Diffie-Hellman key agreement
// over sect233k1 — the public-key half of the hybrid cryptosystem the
// paper's introduction motivates for wireless sensor networks (PKC for
// key exchange, symmetric cryptography for bulk data).
package ecdh

import (
	"crypto/sha256"
	"errors"
	"io"

	"repro/internal/core"
	"repro/internal/ec"
)

// Errors returned by the key-agreement functions.
var (
	ErrInvalidPublicKey = errors.New("ecdh: invalid public key")
	ErrWeakSharedPoint  = errors.New("ecdh: degenerate shared point")
)

// GenerateKey draws a fresh key pair (the node's ephemeral or static
// identity) from the random source.
func GenerateKey(rand io.Reader) (*core.PrivateKey, error) {
	return core.GenerateKey(rand)
}

// Validate checks an incoming public key: on curve, not the identity,
// and in the prime-order subgroup (n·Q = ∞), rejecting small-subgroup
// confinement before any secret-dependent computation.
//
// The membership check deliberately uses the generic double-and-add
// ladder: the τ-adic fast path of core.ScalarMult reduces the scalar
// modulo δ = (τ^m−1)/(τ−1), an identity that only holds on the
// prime-order subgroup — the very property being verified here.
func Validate(peer ec.Affine) error {
	if peer.Inf || !peer.OnCurve() {
		return ErrInvalidPublicKey
	}
	if !ec.ScalarMultGeneric(ec.Order, peer).Inf {
		return ErrInvalidPublicKey
	}
	return nil
}

// ValidateTau is Validate on the fast path: the same predicate (on
// curve, not the identity, in the prime-order subgroup), with the
// membership check done by core.InSubgroup instead of the generic
// double-and-add ladder. That is the halving-trace test: two traces
// and one table half-trace, exact on the whole curve, ~1 µs with the
// on-curve check against ~0.9 ms for the ladder (Validate stays as the
// reference the tests compare against). The name is kept from the
// τ-adic n·P evaluation the check used to run. The differential test
// in validate_tau_test.go holds the two validators equal on every
// coset of the subgroup. Every public-key constructor, the ECQV
// certificate paths and the batch engine validate with this.
func ValidateTau(peer ec.Affine) error {
	if peer.Inf || !peer.OnCurve() {
		return ErrInvalidPublicKey
	}
	if !core.InSubgroup(peer) {
		return ErrInvalidPublicKey
	}
	return nil
}

// SharedSecret computes the raw shared abscissa d·Q using the paper's
// random-point multiplication (kP path).
func SharedSecret(priv *core.PrivateKey, peer ec.Affine) ([]byte, error) {
	return sharedSecret(Validate, priv, peer)
}

// SharedSecretTau is SharedSecret with the fast validator
// (ValidateTau): the same predicate, so the validation costs ~1 µs
// instead of a second scalar multiplication; a fast-key shared secret
// is ~54 µs on a Xeon core, a hardened one ~216 µs. This is the
// one-shot path for peers that arrive as validated opaque keys, where
// the re-validation is defense in depth.
func SharedSecretTau(priv *core.PrivateKey, peer ec.Affine) ([]byte, error) {
	return sharedSecret(ValidateTau, priv, peer)
}

func sharedSecret(validate func(ec.Affine) error, priv *core.PrivateKey, peer ec.Affine) ([]byte, error) {
	if err := validate(peer); err != nil {
		return nil, err
	}
	// A hardened key evaluates d·Q with the constant-time τ-adic
	// ladder (fixed-length recoding, masked table scans); the result
	// is bit-identical to the fast path.
	var p ec.Affine
	if priv.ConstTime {
		p = core.ScalarMultCT(priv.D, peer)
	} else {
		p = core.ScalarMult(priv.D, peer)
	}
	if p.Inf {
		return nil, ErrWeakSharedPoint
	}
	x := p.X.Bytes()
	return x[:], nil
}

// SharedKey derives a symmetric key of the requested length from the
// shared secret with a SHA-256-based KDF (counter mode, SEC 1 style).
func SharedKey(priv *core.PrivateKey, peer ec.Affine, length int) ([]byte, error) {
	return sharedKey(SharedSecret, priv, peer, length)
}

// SharedKeyTau is SharedKey over SharedSecretTau (fast validation).
func SharedKeyTau(priv *core.PrivateKey, peer ec.Affine, length int) ([]byte, error) {
	return sharedKey(SharedSecretTau, priv, peer, length)
}

func sharedKey(secretFn func(*core.PrivateKey, ec.Affine) ([]byte, error), priv *core.PrivateKey, peer ec.Affine, length int) ([]byte, error) {
	secret, err := secretFn(priv, peer)
	if err != nil {
		return nil, err
	}
	if length <= 0 || length > 255*sha256.Size {
		return nil, errors.New("ecdh: invalid key length")
	}
	var out []byte
	var counter uint32
	for len(out) < length {
		counter++
		h := sha256.New()
		h.Write(secret)
		h.Write([]byte{
			byte(counter >> 24), byte(counter >> 16),
			byte(counter >> 8), byte(counter),
		})
		out = h.Sum(out)
	}
	return out[:length], nil
}
