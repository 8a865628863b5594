package repro

// Point-level primitives: the paper's scalar-multiplication paths and
// the X9.62 point codecs. Points are the low-level currency beneath
// the opaque key types (keys.go); bridge between the two with
// PublicKey.Point and PublicKeyFromPoint.

import (
	"math/big"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/ecdh"
)

// Point is a point on sect233k1 in affine coordinates.
type Point = ec.Affine

// Generator returns the standard base point G.
func Generator() Point { return ec.Gen() }

// Order returns the prime order n of the base-point subgroup.
func Order() *big.Int { return new(big.Int).Set(ec.Order) }

// ScalarMult computes k·P with the paper's random-point method (wTNAF,
// w = 4, mixed LD-affine coordinates). P must lie in the prime-order
// subgroup; validate untrusted points with ValidatePoint first.
func ScalarMult(k *big.Int, p Point) Point { return core.ScalarMult(k, p) }

// ScalarBaseMult computes k·G with the paper's fixed-point method
// (wTNAF, w = 6, precomputed table).
func ScalarBaseMult(k *big.Int) Point { return core.ScalarBaseMult(k) }

// ScalarMultConstantTime computes k·P with the López-Dahab x-only
// Montgomery ladder — the power-analysis countermeasure the paper's §5
// proposes, and the ladder hardened ECDH runs. Every k (reduced modulo
// the curve order 4n) takes the same 234 steps with a masked swap per
// bit; the only branches are on P and on the result. Slower than
// ScalarMult (about 1.8× with CLMUL) but with data-independent
// operation flow.
func ScalarMultConstantTime(k *big.Int, p Point) Point {
	return core.ScalarMultLadder(k, p)
}

// ValidatePoint checks that p is on the curve, not the identity, and a
// member of the prime-order subgroup. It is the check NewPublicKey and
// PublicKeyFromPoint run.
func ValidatePoint(p Point) error { return ecdh.ValidateTau(p) }

// EncodePoint returns the X9.62 uncompressed encoding of p.
func EncodePoint(p Point) []byte { return p.Encode() }

// EncodePointCompressed returns the 31-byte compressed encoding of p.
func EncodePointCompressed(p Point) []byte { return p.EncodeCompressed() }

// DecodePoint parses an encoded point and verifies curve membership.
// Unlike NewPublicKey it does NOT check subgroup membership — use it
// for points that are not keys (or validate with ValidatePoint).
func DecodePoint(b []byte) (Point, error) { return ec.Decode(b) }
