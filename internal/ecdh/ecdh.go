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
	"repro/internal/gf233"
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
// confinement before any secret-dependent computation. It is the
// reference ValidateTau is tested against.
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
// certificate paths, SharedSecret and the batch engine validate with
// this.
func ValidateTau(peer ec.Affine) error {
	if peer.Inf || !peer.OnCurve() {
		return ErrInvalidPublicKey
	}
	if !core.InSubgroup(peer) {
		return ErrInvalidPublicKey
	}
	return nil
}

// SharedSecret validates the peer with ValidateTau and returns the raw
// shared abscissa x(d·Q). A fast key evaluates d·Q with the paper's
// random-point multiplication (kP path); a hardened key runs the
// constant-time x-only ladder and one fixed-chain inversion, since ECDH
// needs only x. Both give the same bytes: 31–38 µs fast and 54–57 µs
// hardened, validation included (2-vCPU Xeon VM with CLMUL).
func SharedSecret(priv *core.PrivateKey, peer ec.Affine) ([]byte, error) {
	if err := ValidateTau(peer); err != nil {
		return nil, err
	}
	var x gf233.Elem
	var ok bool
	if priv.ConstTime {
		x, ok = core.LadderX(priv.D, peer)
	} else {
		p := core.ScalarMult(priv.D, peer)
		x, ok = p.X, !p.Inf
	}
	if !ok {
		return nil, ErrWeakSharedPoint
	}
	b := x.Bytes()
	return b[:], nil
}

// SharedSecretTau is SharedSecret, under the name bench/ still calls.
func SharedSecretTau(priv *core.PrivateKey, peer ec.Affine) ([]byte, error) {
	return SharedSecret(priv, peer)
}

// SharedKey derives a symmetric key of the requested length from the
// shared secret with a SHA-256-based KDF (counter mode, SEC 1 style).
func SharedKey(priv *core.PrivateKey, peer ec.Affine, length int) ([]byte, error) {
	secret, err := SharedSecret(priv, peer)
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
