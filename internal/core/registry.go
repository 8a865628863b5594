package core

import (
	"sync"

	"repro/internal/ec"
	"repro/internal/koblitz"
)

// Shared-table registry.
//
// Every precomputation a server-side deployment shares between
// goroutines lives here: the generator comb (the ScalarBaseMult fast
// path), the generator wTNAF w=6 table (the paper-faithful reference)
// and the wide-window w=WJoint generator table (the u1·G side of the
// joint double-scalar verifier). The subgroup check and point
// decompression read one more frozen table, ec's half-trace table,
// which lives in package ec under the same contract. The concurrency
// contract is deliberately simple:
//
//   - each table is built at most once, guarded by its own sync.Once;
//   - after the Once completes the table is frozen — no code path
//     writes it again — so concurrent readers need no locks and no
//     atomics beyond the Once itself;
//   - first use under concurrency is safe: racing goroutines block on
//     the Once and then observe the fully built table (the 32-way
//     -race tests in internal/engine pin this down);
//   - the tables are in the 64-bit representation both field backends
//     read, so gf233.SetBackend mid-flight never tears a table: backend
//     selection only chooses the field arithmetic, and the two backends
//     are bit-identical.
//
// tableRegistry is a type (rather than bare package globals) so the
// race tests can hammer first-use initialisation on fresh instances;
// the package serves every caller from the single genTables instance.
type tableRegistry struct {
	combOnce   sync.Once
	comb       *Comb
	combCTOnce sync.Once
	combCT     *combCT
	tnafOnce   sync.Once
	tnaf       *FixedBase
	jointOnce  sync.Once
	joint      *FixedBase
}

// genTables is the process-wide registry for the sect233k1 generator.
var genTables tableRegistry

// generatorComb returns the frozen width-WComb comb for G.
func (r *tableRegistry) generatorComb() *Comb {
	r.combOnce.Do(func() {
		r.comb = NewComb(ec.Gen(), WComb)
	})
	return r.comb
}

// generatorCombCT returns the frozen width-WCombCT split comb for G:
// the hardened ScalarBaseMult path. A separate, narrower comb because
// the masked full-table scan makes the fast comb's width a liability
// (see WCombCT); the tables are frozen under their own Once with the
// same concurrency contract as the fast comb.
func (r *tableRegistry) generatorCombCT() *combCT {
	r.combCTOnce.Do(func() {
		r.combCT = newCombCT(NewComb(ec.Gen(), WCombCT))
	})
	return r.combCT
}

// generatorTNAF returns the frozen wTNAF w=WFixed table for G.
func (r *tableRegistry) generatorTNAF() *FixedBase {
	r.tnafOnce.Do(func() {
		r.tnaf = NewFixedBase(ec.Gen(), WFixed)
	})
	return r.tnaf
}

// generatorJoint returns the frozen wTNAF w=WJoint table for G: the
// wide-window generator side of the joint double-scalar verifier. Its
// 2^(WJoint-2) = 1024 points cost ~0.4 ms to build, several
// verifications' worth, so they are built exactly once here and the
// verification hot path pays only the ~m/(WJoint+1) digit density.
func (r *tableRegistry) generatorJoint() *FixedBase {
	r.jointOnce.Do(func() {
		r.joint = NewFixedBase(ec.Gen(), WJoint)
	})
	return r.joint
}

func generatorComb() *Comb     { return genTables.generatorComb() }
func generatorCombCT() *combCT { return genTables.generatorCombCT() }
func genBase() *FixedBase      { return genTables.generatorTNAF() }
func genJoint() *FixedBase     { return genTables.generatorJoint() }

// Warm eagerly builds every shared table the hot paths consult lazily:
// the generator comb and wTNAF tables, ec's half-trace table (subgroup
// check and decompression; ~0.8 ms to build), the recoding window
// caches for both paper widths, and the δ constants.
// Servers call this once at startup so the first wave of traffic never
// pays (or races on) table construction; it is idempotent and safe to
// call concurrently.
func Warm() {
	genTables.generatorComb()
	genTables.generatorCombCT()
	genTables.generatorTNAF()
	genTables.generatorJoint()
	ec.Warm()
	koblitz.Alpha(WRandom)
	koblitz.Alpha(WFixed)
	koblitz.Alpha(WJoint)
	koblitz.Delta()
}

// InSubgroup reports whether the curve point p lies in the prime-order
// subgroup. Callers must have checked p.OnCurve() first.
//
// The test is exact on the whole curve. #E = 4n with a cyclic Z₄
// cofactor, so the off-subgroup points are the three cosets P + T for
// T ∈ {(0, 1), (1, 0), (1, 1)}. The identity is in the subgroup; every
// other point goes to ec.InPrimeSubgroup64's halving-trace test, two
// traces and one table half-trace, ~0.4 µs on a Xeon core. The tests
// hold it equal to the generic n·P = ∞ ladder on every coset.
func InSubgroup(p ec.Affine) bool {
	if p.Inf {
		return true
	}
	p64 := p.To64()
	return ec.InPrimeSubgroup64(p64.X, p64.Y)
}
