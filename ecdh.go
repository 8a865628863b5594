package repro

// ECDH on the opaque key types, mirroring crypto/ecdh's
// PrivateKey.ECDH shape with an explicit output length (the KDF the
// WSN examples need is built in, SEC 1 style).

import (
	"repro/internal/ecdh"
	"repro/internal/engine"
)

// SharedSecretSize is the byte length of a raw ECDH shared secret (the
// shared abscissa, a field element).
const SharedSecretSize = engine.SecretSize

// ECDH derives a symmetric key of the given length against the peer's
// public key: the raw shared abscissa d·Q run through a
// SHA-256-counter KDF (SEC 1 style). peer was fully validated at
// construction; ECDH still re-validates before the private scalar
// touches the point, so a corrupted or hand-built peer cannot leak
// key bits through a small-subgroup confinement. The re-validation
// is the halving-trace subgroup test (differentially proven equal to
// the generic n·Q ladder): ~1µs including the on-curve check, against
// ~33µs for the fast shared-secret evaluation it guards.
func (priv *PrivateKey) ECDH(peer *PublicKey, length int) ([]byte, error) {
	return ecdh.SharedKey(priv.key, peer.point, length)
}

// SharedSecret derives the raw shared secret d·Q against the peer —
// the un-KDF'd variant for protocols that run their own key schedule.
// Validation as in ECDH.
func (priv *PrivateKey) SharedSecret(peer *PublicKey) ([]byte, error) {
	return ecdh.SharedSecret(priv.key, peer.point)
}
