package koblitz

import "math/big"

// orderK233 is the sect233k1 group order (kept local so the koblitz
// package stays free of an ec import cycle; the value is pinned by the
// ec package's own tests).
var orderK233, _ = new(big.Int).SetString(
	"8000000000000000000000000000069d5bb915bcd46efb1ad5f173abdf", 16)

// i128ToBig converts a two's-complement i128 back to a big.Int (test
// helper only).
func i128ToBig(x i128) *big.Int {
	neg := int64(x.hi) < 0
	if neg {
		x = x.neg()
	}
	v := new(big.Int).SetUint64(x.hi)
	v.Lsh(v, 64)
	v.Or(v, new(big.Int).SetUint64(x.lo))
	if neg {
		v.Neg(v)
	}
	return v
}
