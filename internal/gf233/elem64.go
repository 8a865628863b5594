package gf233

// This file begins the host-optimized 64-bit backend: the same field
// F_2^233, stored as 4 little-endian 64-bit words instead of the
// paper's 8 Cortex-M0+ words. The 32-bit representation stays the
// simulator-faithful reference (it is what internal/opcount and
// internal/codegen model); the 64-bit one exists purely so 64-bit hosts
// stop paying double the word operations per field multiplication. The
// two are bridged by ToElem64 / Elem64.Elem and cross-checked by the
// differential fuzz targets in fuzz64_test.go.

const (
	// NumWords64 is the number of 64-bit words per element.
	NumWords64 = 4
	// TopBits64 is the number of significant bits in the top 64-bit word.
	TopBits64 = M - (NumWords64-1)*64
	// TopMask64 masks the significant bits of the top 64-bit word.
	TopMask64 = 1<<TopBits64 - 1
)

// Elem64 is a field element in the 64-bit backend: bit i of word j is
// the coefficient of x^(64j+i). All stored elements are fully reduced
// (degree < 233). Elem64 is a value type; == tests field equality.
type Elem64 [NumWords64]uint64

// Zero64 and One64 are the additive and multiplicative identities.
var (
	Zero64 = Elem64{}
	One64  = Elem64{1}
)

// ToElem64 repacks a into 64-bit words. The two layouts agree on the
// little-endian bit order, so this is pure word splicing.
func ToElem64(a Elem) Elem64 {
	return Elem64{
		uint64(a[0]) | uint64(a[1])<<32,
		uint64(a[2]) | uint64(a[3])<<32,
		uint64(a[4]) | uint64(a[5])<<32,
		uint64(a[6]) | uint64(a[7])<<32,
	}
}

// Elem repacks a into the 32-bit reference representation.
func (a Elem64) Elem() Elem {
	return Elem{
		uint32(a[0]), uint32(a[0] >> 32),
		uint32(a[1]), uint32(a[1] >> 32),
		uint32(a[2]), uint32(a[2] >> 32),
		uint32(a[3]), uint32(a[3] >> 32),
	}
}

// IsZero reports whether a is the zero element.
func (a Elem64) IsZero() bool { return a == Zero64 }

// Add64 returns a + b (coefficient-wise XOR).
func Add64(a, b Elem64) Elem64 {
	return Elem64{a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]}
}

// AddTo sets *z = a + b, the pointer form of Add64 beside MulTo and
// SqrTo. z may alias a, b or both.
func AddTo(z, a, b *Elem64) {
	z[0] = a[0] ^ b[0]
	z[1] = a[1] ^ b[1]
	z[2] = a[2] ^ b[2]
	z[3] = a[3] ^ b[3]
}

// String renders a in big-endian hex via the reference representation.
func (a Elem64) String() string { return a.Elem().String() }
