// Package gf233 implements the binary field F_2^233 underlying the
// sect233k1 Koblitz curve used by the paper.
//
// Elements are binary polynomials of degree < 233 reduced modulo the
// sparse trinomial f(x) = x^233 + x^74 + 1, stored as 8 little-endian
// 32-bit words (the Cortex-M0+ word size, so n = 8 in the paper's
// notation). The package provides the paper's complete field-arithmetic
// tool box: word-at-a-time reduction (§3.2.2), the three López-Dahab
// multiplication variants compared in §3.3 — the original LD method, LD
// with rotating registers, and the proposed LD with fixed registers —
// table-based squaring with interleaved reduction (§3.2.4), and extended
// Euclidean inversion (§3.2.3).
//
// Alongside the 32-bit reference the package carries two host backends
// on a 4x64-bit representation — a portable windowed-LD path and a
// PCLMULQDQ carry-less-multiply path with Itoh–Tsujii inversion —
// selected at package level; backend.go documents the two backends,
// the dispatch contract and the fallback rules.
package gf233

import (
	"fmt"
	"math/bits"

	"repro/internal/gf2"
)

const (
	// M is the extension degree of the field.
	M = 233
	// NumWords is the number of 32-bit words per element (n in the paper).
	NumWords = 8
	// TopBits is the number of significant bits in the top word.
	TopBits = M - (NumWords-1)*32
	// TopMask masks the significant bits of the top word.
	TopMask = 1<<TopBits - 1
	// ReductionExp is the middle exponent of the reduction trinomial
	// f(x) = x^M + x^ReductionExp + 1.
	ReductionExp = 74
)

// Elem is a field element: bit i of word j is the coefficient of
// x^(32j+i). All stored elements are fully reduced (degree < 233).
// Elem is a value type; the == operator tests field equality.
type Elem [NumWords]uint32

// Zero and One are the additive and multiplicative identities.
var (
	Zero = Elem{}
	One  = Elem{1}
)

// IsZero reports whether a is the zero element.
func (a Elem) IsZero() bool { return a == Zero }

// Add returns a + b. Addition in characteristic 2 is coefficient-wise
// XOR and is its own inverse.
func Add(a, b Elem) Elem {
	var c Elem
	for i := range c {
		c[i] = a[i] ^ b[i]
	}
	return c
}

// Degree returns the polynomial degree of a, or -1 for zero.
func (a Elem) Degree() int {
	for i := NumWords - 1; i >= 0; i-- {
		if a[i] != 0 {
			return i*32 + bits.Len32(a[i]) - 1
		}
	}
	return -1
}

// Bit returns coefficient i of a.
func (a Elem) Bit(i int) uint32 {
	if i < 0 || i >= NumWords*32 {
		return 0
	}
	return a[i/32] >> (i % 32) & 1
}

// Trace returns the field trace Tr(a) = a + a^2 + a^4 + ... + a^(2^232),
// an F2-linear map onto {0,1}, computed by definition. It doubles as a
// cross-check of squaring; TraceFast is the production path.
func Trace(a Elem) uint32 {
	sum := a
	sq := a
	for i := 1; i < M; i++ {
		sq = Sqr(sq)
		sum = Add(sum, sq)
	}
	// The trace lies in F2, so sum must be 0 or 1.
	if sum != Zero && sum != One {
		panic("gf233: trace escaped the prime subfield")
	}
	return sum[0]
}

// traceMask marks the basis elements x^i with Tr(x^i) = 1. Because the
// trace is F2-linear, Tr(a) is the parity of a AND traceMask. The mask
// is derived once from the definitional Trace (for the sect233k1
// trinomial it is extremely sparse).
var traceMask = func() Elem {
	var mask Elem
	for i := 0; i < M; i++ {
		var b Elem
		b[i/32] = 1 << (i % 32)
		if Trace(b) == 1 {
			mask[i/32] |= 1 << (i % 32)
		}
	}
	return mask
}()

// TraceFast returns Tr(a) via the precomputed linear form: the parity
// of the coefficients selected by the trace mask — constant time and
// hundreds of times cheaper than the 232-squaring definition.
func TraceFast(a Elem) uint32 {
	var acc uint32
	for i, w := range a {
		acc ^= w & traceMask[i]
	}
	acc ^= acc >> 16
	acc ^= acc >> 8
	acc ^= acc >> 4
	acc ^= acc >> 2
	acc ^= acc >> 1
	return acc & 1
}

// Modulus returns the reduction polynomial f(x) = x^233 + x^74 + 1 as a
// generic polynomial, for cross-checks against the gf2 oracle.
func Modulus() gf2.Poly {
	return gf2.Add(gf2.Add(gf2.X(M), gf2.X(ReductionExp)), gf2.One())
}

// FromPoly reduces an arbitrary-precision polynomial into the field.
func FromPoly(p gf2.Poly) Elem {
	r := gf2.Mod(p, Modulus())
	var e Elem
	for i := 0; i < NumWords && i < len(r); i++ {
		e[i] = r[i]
	}
	return e
}

// Poly returns a as an arbitrary-precision polynomial.
func (a Elem) Poly() gf2.Poly {
	return gf2.Poly(a[:]).Norm().Clone()
}

// FromHex parses a big-endian hex string (standard sect233k1 parameter
// notation) and reduces it into the field.
func FromHex(s string) (Elem, error) {
	p, err := gf2.FromHex(s)
	if err != nil {
		return Zero, err
	}
	return FromPoly(p), nil
}

// MustHex is FromHex for trusted constants; it panics on error.
func MustHex(s string) Elem {
	e, err := FromHex(s)
	if err != nil {
		panic(err)
	}
	return e
}

// String renders a in big-endian hex.
func (a Elem) String() string { return a.Poly().String() }

// ByteLen is the length of the fixed-width encoding of an element.
const ByteLen = 30 // ceil(233/8)

// Bytes returns the big-endian fixed-width encoding of a (30 bytes, as
// used in X9.62-style point encodings).
func (a Elem) Bytes() [ByteLen]byte {
	var out [ByteLen]byte
	for i := 0; i < ByteLen; i++ {
		w := a[i/4]
		out[ByteLen-1-i] = byte(w >> (8 * (i % 4)))
	}
	return out
}

// FromBytes decodes a big-endian fixed-width encoding. It reports
// ok=false if the value has bits above x^232.
func FromBytes(b [ByteLen]byte) (Elem, bool) {
	var a Elem
	for i := 0; i < ByteLen; i++ {
		a[i/4] |= uint32(b[ByteLen-1-i]) << (8 * (i % 4))
	}
	if a[NumWords-1]&^TopMask != 0 {
		return Zero, false
	}
	return a, true
}

// Rand returns a uniformly random field element drawn from src, a
// function returning random 32-bit words (e.g. rand.Uint32 from
// math/rand for tests, or a CSPRNG adapter in production use).
func Rand(src func() uint32) Elem {
	var a Elem
	for i := range a {
		a[i] = src()
	}
	a[NumWords-1] &= TopMask
	return a
}

// validate panics if a carries bits above the field degree; used by
// internal consistency checks in tests.
func (a Elem) validate() {
	if a[NumWords-1]&^TopMask != 0 {
		panic(fmt.Sprintf("gf233: unreduced element %v", a))
	}
}
