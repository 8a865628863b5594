package ec

import "repro/internal/gf233"

// InPrimeSubgroup64 reports whether the affine curve point (x, y)
// lies in the prime-order subgroup, by the halving-based trace test
// after Knudsen (ASIACRYPT 1999): two trace evaluations and one
// table-driven quadratic solve, ~0.4µs against ~0.9ms for n·P on the
// generic ladder. It is the body of core.InSubgroup, the host's only
// subgroup-membership algorithm; the tests hold both equal to the
// generic n·P = ∞ ladder on every coset of the subgroup.
//
// #E = 4n and the curve has a single point of order two, (0, √b) —
// doubling is undefined only at x = 0 and y² = b there — so the group
// is cyclic of order 4n and the prime-order subgroup is exactly 4E,
// the twice-halvable points. Halving solves the doubling formulas
// backwards: 2Q = P with λ̂ = λ(Q) means λ̂² + λ̂ = x(P) + a, solvable
// iff Tr(x + a) = 0 (a = 0 here), and then x(Q)² = y + (λ̂ + 1)·x.
// P is halvable twice iff some half Q is itself halvable, i.e.
// Tr(x(Q)) = Tr(x(Q)²) = 0 — squaring preserves the trace, and the
// test is independent of both ambiguities (λ̂ vs λ̂ + 1, Q vs
// Q + (0, √b)) because each shifts x(Q)² by x, whose trace is already
// known zero. Hence:
//
//	P ∈ 4E  ⟺  Tr(x) = 0  ∧  Tr(y + (λ̂ + 1)·x) = 0.
//
// Callers must have checked (x, y) is on the curve. The one on-curve
// point with x = 0 is the order-2 point (0, 1): λ̂ = 0 there, so the
// second trace reads Tr(1) = 1 (m is odd) and rejects it.
func InPrimeSubgroup64(x, y gf233.Elem64) bool {
	lam, ok := SolveQuadratic64(x)
	if !ok {
		return false // Tr(x) = 1: not even halvable once
	}
	u2 := gf233.Add64(y, gf233.Mul64(gf233.Add64(lam, gf233.One64), x))
	return gf233.TraceFast(u2.Elem()) == 0
}
