package ec

import (
	"errors"

	"repro/internal/gf233"
)

// Point encoding per X9.62/SEC 1 conventions for binary curves. The WSN
// application the paper targets transmits public keys over the radio, so
// the 31-byte compressed encoding (vs 61 uncompressed) is the format of
// the module's own wire protocols.

// Encoding prefixes.
const (
	prefixInfinity     = 0x00
	prefixCompressed0  = 0x02
	prefixCompressed1  = 0x03
	prefixUncompressed = 0x04
)

// Errors returned by Decode.
var (
	ErrInvalidEncoding = errors.New("ec: invalid point encoding")
	ErrNotOnCurve      = errors.New("ec: point not on curve")
)

// Encode returns the uncompressed encoding 0x04 || x || y
// (1 + 30 + 30 bytes), or the single byte 0x00 for infinity.
func (p Affine) Encode() []byte {
	if p.Inf {
		return []byte{prefixInfinity}
	}
	out := make([]byte, 1, 1+2*gf233.ByteLen)
	out[0] = prefixUncompressed
	xb, yb := p.X.Bytes(), p.Y.Bytes()
	out = append(out, xb[:]...)
	return append(out, yb[:]...)
}

// EncodeCompressed returns the compressed encoding 0x02|ỹ || x
// (1 + 30 bytes). For binary curves the recovery bit ỹ is the least
// significant bit of y/x (and 0 when x = 0).
func (p Affine) EncodeCompressed() []byte {
	if p.Inf {
		return []byte{prefixInfinity}
	}
	var bit uint32
	if p.X != gf233.Zero {
		lam, _ := gf233.Div(p.Y, p.X)
		bit = lam.Bit(0)
	}
	out := make([]byte, 1, 1+gf233.ByteLen)
	out[0] = prefixCompressed0 | byte(bit)
	xb := p.X.Bytes()
	return append(out, xb[:]...)
}

// Decode parses an encoded point (infinity, compressed or uncompressed)
// and verifies curve membership.
func Decode(b []byte) (Affine, error) {
	if len(b) == 0 {
		return Infinity, ErrInvalidEncoding
	}
	switch b[0] {
	case prefixInfinity:
		if len(b) != 1 {
			return Infinity, ErrInvalidEncoding
		}
		return Infinity, nil
	case prefixUncompressed:
		if len(b) != 1+2*gf233.ByteLen {
			return Infinity, ErrInvalidEncoding
		}
		var xb, yb [gf233.ByteLen]byte
		copy(xb[:], b[1:1+gf233.ByteLen])
		copy(yb[:], b[1+gf233.ByteLen:])
		x, okx := gf233.FromBytes(xb)
		y, oky := gf233.FromBytes(yb)
		if !okx || !oky {
			return Infinity, ErrInvalidEncoding
		}
		p := Affine{X: x, Y: y}
		if !p.OnCurve() {
			return Infinity, ErrNotOnCurve
		}
		return p, nil
	case prefixCompressed0, prefixCompressed1:
		if len(b) != 1+gf233.ByteLen {
			return Infinity, ErrInvalidEncoding
		}
		var xb [gf233.ByteLen]byte
		copy(xb[:], b[1:])
		x, ok := gf233.FromBytes(xb)
		if !ok {
			return Infinity, ErrInvalidEncoding
		}
		return Decompress(x, uint32(b[0]&1))
	default:
		return Infinity, ErrInvalidEncoding
	}
}

// Decompress recovers the point with abscissa x and recovery bit. For
// x != 0, λ = y/x satisfies the quadratic λ² + λ = x + a + b/x², which is
// solvable iff Tr(x + a + b/x²) = 0; the solution is the half-trace of
// the right-hand side and λ's low bit selects between the two roots.
// The arithmetic runs in the 64-bit representation, and the half-trace
// comes from the frozen table (SolveQuadratic64) rather than the
// double-squaring chain of SolveQuadratic, which the tests keep as the
// reference.
func Decompress(x gf233.Elem, bit uint32) (Affine, error) {
	if x == gf233.Zero {
		// y² = b, so y = sqrt(b) = 1 for sect233k1.
		return Affine{X: x, Y: gf233.Sqrt(B)}, nil
	}
	x64 := gf233.ToElem64(x)
	x2i := gf233.MustInv64(gf233.Sqr64(x64))
	c := gf233.Add64(x64, gf233.Mul64(gf233.ToElem64(B), x2i)) // a = 0
	lam, ok := SolveQuadratic64(c)
	if !ok {
		return Infinity, ErrNotOnCurve
	}
	if uint32(lam[0]&1) != bit&1 {
		lam = gf233.Add64(lam, gf233.One64)
	}
	p := Affine{X: x, Y: gf233.Mul64(lam, x64).Elem()}
	if !p.OnCurve() {
		return Infinity, ErrNotOnCurve
	}
	return p, nil
}

// SolveQuadratic returns a solution λ of λ² + λ = c, if one exists
// (iff Tr(c) = 0). For odd extension degree m the solution is the
// half-trace H(c) = Σ_{i=0}^{(m-1)/2} c^(2^(2i)).
func SolveQuadratic(c gf233.Elem) (gf233.Elem, bool) {
	h := c
	t := c
	for i := 0; i < (gf233.M-1)/2; i++ {
		t = gf233.SqrN(t, 2)
		h = gf233.Add(h, t)
	}
	// Verify: h² + h must equal c (fails when Tr(c) = 1).
	if gf233.Add(gf233.Sqr(h), h) != c {
		return gf233.Zero, false
	}
	return h, true
}
