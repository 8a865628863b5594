// Package fp models the prime-field arithmetic of the curves the
// paper's §3.1 selection model weighs against binary Koblitz curves
// (and that the Micro ECC comparison rows of Table 4 use): secp192r1
// and secp256r1.
//
// It provides the word-level operation analysis of Comba
// (product-scanning) multiplication on a Cortex-M0+-class core — the
// input to the §3.1 instruction-mix model. The M0+ detail that matters:
// its MULS instruction returns only the low 32 bits of a product, so a
// full 32×32→64 limb product must be synthesised from four 16×16
// multiplications and carry additions, which is exactly why
// prime-field arithmetic is MUL/ADD-heavy on this core.
package fp

// MulOpCounts tallies the word-level operations of one full-width field
// multiplication (multiply + reduction) on a 32-bit core without a
// widening multiplier.
type MulOpCounts struct {
	Mul32 int // MULS instructions
	Add   int // ADD/ADC instructions
	Load  int // memory reads
	Store int // memory writes
	Shift int // shifts (reduction folding)
}

// CombaCounts analyses Comba product-scanning multiplication of two
// n-limb operands on the Cortex-M0+:
//
//   - n² limb products; without a widening multiplier each 32×32→64
//     product is synthesised from 4 MULS over 16×16 splits, 6 shifts/
//     extractions to form the halves, and ~14 additions to assemble the
//     64-bit value with carries and accumulate it into Comba's
//     triple-word column accumulator (ADDS/ADCS chains need extra moves
//     on Thumb-1, booked as adds);
//   - each limb pair loaded per product (2 loads — the column order
//     prevents caching both operands in the 8 low registers);
//   - 2n column stores plus an NIST fast-reduction pass over the
//     2n-limb product (~2 loads, 2 adds, 1 store per output limb).
//
// At 7 limbs this yields ≈ 1450 cycles per field multiplication, in
// line with compact M0-class prime-field implementations (Micro ECC's
// measured point-multiplication throughput implies several thousand
// cycles per multiplication).
func CombaCounts(limbs int) MulOpCounts {
	n := limbs
	return MulOpCounts{
		Mul32: 4 * n * n,
		Add:   14*n*n + 4*n,
		Load:  2*n*n + 2*n,
		Store: 2*n + 2*n,
		Shift: 6 * n * n,
	}
}

// Cycles evaluates the paper's 2-cycles-per-memory-operation cost rule.
func (c MulOpCounts) Cycles() int {
	return 2*(c.Load+c.Store) + c.Mul32 + c.Add + c.Shift
}

// Total is the raw instruction count.
func (c MulOpCounts) Total() int {
	return c.Mul32 + c.Add + c.Load + c.Store + c.Shift
}
