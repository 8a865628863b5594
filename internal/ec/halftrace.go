package ec

import (
	"math/bits"
	"sync"

	"repro/internal/gf233"
)

// Fast quadratic solver for point decompression and the subgroup
// test. The half-trace H(c) = Σ_{i=0}^{(m-1)/2} c^(4^i) is GF(2)-linear
// in c, so a frozen table of H(z^j) for every basis monomial z^j turns
// the per-call (m−1)/2 double-squaring chain (~230 squarings) into
// ~m/2 conditional field additions — roughly an order of magnitude
// cheaper. Every decode of a compressed point, every subgroup check
// and every hinted nonce recovery runs one. The table costs m Elem64
// values (~7.5 KiB), built once per process from the slow reference
// chain (~0.8 ms); Warm builds it ahead of the first request.

var (
	htOnce  sync.Once
	htTable [gf233.M]gf233.Elem64
)

// Warm builds the half-trace table now rather than inside the first
// decode or subgroup check. It is idempotent and safe to call
// concurrently; core.Warm calls it.
func Warm() { htOnce.Do(htInit) }

func htInit() {
	for j := 0; j < gf233.M; j++ {
		var xb [gf233.ByteLen]byte
		xb[gf233.ByteLen-1-j/8] |= 1 << (j % 8)
		x, ok := gf233.FromBytes(xb)
		if !ok {
			panic("ec: half-trace basis element out of range")
		}
		c := gf233.ToElem64(x)
		h, t := c, c
		for i := 0; i < (gf233.M-1)/2; i++ {
			t = gf233.SqrN64(t, 2)
			h = gf233.Add64(h, t)
		}
		htTable[j] = h
	}
}

// SolveQuadratic64 returns a solution λ of λ² + λ = c, if one exists
// (iff Tr(c) = 0): the 64-bit-native, table-driven twin of
// SolveQuadratic, held bit-identical to it by the differential test in
// halftrace_test.go. The other solution is λ + 1.
func SolveQuadratic64(c gf233.Elem64) (gf233.Elem64, bool) {
	if c[3]>>gf233.TopBits64 != 0 {
		return gf233.Zero64, false // not a reduced field element
	}
	htOnce.Do(htInit)
	// One table row per set bit of c, summed into four word
	// accumulators that stay in registers (about 5× faster than
	// folding whole Elem64 values with Add64).
	var h0, h1, h2, h3 uint64
	for w, word := range c {
		for ; word != 0; word &= word - 1 {
			e := &htTable[64*w+bits.TrailingZeros64(word)]
			h0 ^= e[0]
			h1 ^= e[1]
			h2 ^= e[2]
			h3 ^= e[3]
		}
	}
	h := gf233.Elem64{h0, h1, h2, h3}
	// Solvability check doubles as the correctness proof of the table
	// path: h² + h = c fails exactly when Tr(c) = 1.
	if gf233.Add64(gf233.Sqr64(h), h) != c {
		return gf233.Zero64, false
	}
	return h, true
}
