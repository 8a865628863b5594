// Constant-time study: the paper's future-work section (§5) notes that
// the wTNAF point multiplication "doesn't execute in constant-time and
// is therefore at risk of a power analysis attack", proposing a
// Montgomery-ladder variant. This example quantifies that risk surface
// and the cost of the countermeasure:
//
//  1. the wTNAF path's work depends on the scalar (the number of
//     nonzero recoding digits varies), which a power trace can see;
//  2. the Montgomery ladder performs identical work for every scalar:
//     a fixed 234 steps, the bit length of the curve order 4n;
//  3. the ladder's overhead is the price of the countermeasure.
package main

import (
	"fmt"
	"math/big"
	"math/rand"

	"repro"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/koblitz"
	"repro/internal/tables"
)

func main() {
	rnd := rand.New(rand.NewSource(1))

	// Part 1: scalar-dependent work in the wTNAF path. The number of
	// point additions equals the number of nonzero τ-adic digits.
	const samples = 300
	counts := make(map[int]int)
	min, max := 1<<30, 0
	for i := 0; i < samples; i++ {
		k := new(big.Int).Rand(rnd, ec.Order)
		digits := koblitz.WTNAF(koblitz.PartMod(k), core.WRandom)
		nz := 0
		for _, d := range digits {
			if d != 0 {
				nz++
			}
		}
		counts[nz]++
		if nz < min {
			min = nz
		}
		if nz > max {
			max = nz
		}
	}
	fmt.Printf("wTNAF (w=4) point additions over %d random scalars: min %d, max %d\n",
		samples, min, max)
	fmt.Printf("=> %d distinguishable work levels leak scalar information through power.\n\n",
		max-min+1)

	// Part 2: the ladder runs the same fixed number of steps for every k.
	fmt.Println("Montgomery ladder: one masked swap, one x-only add and one double per")
	fmt.Println("step, for a fixed 234 steps (the bit length of 4n) whatever the key.")
	fmt.Println()

	// Part 3: correctness and cost comparison.
	g := ec.Gen()
	t := tables.New("wTNAF vs Montgomery ladder (field multiplications per scalar mult, modelled)",
		"Path", "Field muls", "Constant time")
	// wTNAF: ~m/(w+1) adds × 8 muls + conversion. Ladder: 234 steps of
	// 5M + 4S (x-only add 4M + 1S, double 1M + 3S), then y recovery (10M)
	// and one Itoh–Tsujii inversion (10M + 232S).
	wtnafMuls := 233/5*8 + 2
	ladderMuls := 234*5 + 10 + 10
	t.Row("wTNAF w=4 (paper §4.2.2)", wtnafMuls, "no")
	t.Row("Montgomery ladder (paper §5)", ladderMuls, "yes")
	fmt.Println(t)

	// Verify the two paths agree on a batch of scalars — through the
	// public API, since repro.ScalarMultConstantTime is the surface a
	// power-analysis-conscious caller would actually use.
	agree := true
	for i := 0; i < 20; i++ {
		k := new(big.Int).Rand(rnd, ec.Order)
		if !repro.ScalarMult(k, g).Equal(repro.ScalarMultConstantTime(k, g)) {
			agree = false
			break
		}
	}
	fmt.Printf("fast path and constant-time path agree on random scalars: %v\n", agree)
}
