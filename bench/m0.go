package main

import (
	"fmt"
	"math/big"
	mrand "math/rand/v2"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/profile"
)

// The M0+ leg: the paper's own end-to-end result, kP (w = 4) and kG
// (w = 6) on the simulated Cortex-M0+ with the Table 3 energy model.
// Its counts are deterministic for a given scalar, and the scalars come
// from a fixed stream rather than the run's seed, so every run reports
// the same counts and any change to them is the code's.

const (
	m0Scalars = 16
	m0Seed    = 1 // the fixed stream the scalars are drawn from
)

// paperScalar is the fixed demonstration scalar of eccbench's tables.
func paperScalar() *big.Int {
	k, _ := new(big.Int).SetString("6c9b1f47a1b0c2d3e4f5061728394a5b6c7d8e9f0011223344556677", 16)
	return k
}

// m0Result holds the sums over the fixed scalars and the paper
// scalar's own breakdowns.
type m0Result struct {
	setup            time.Duration // codegen.Build + profile.MeasureOpCosts
	costs            *profile.OpCosts
	n                int               // fixed scalars
	kp, kg           profile.Breakdown // sums over the fixed scalars
	paperKP, paperKG profile.Breakdown
}

// mean is a summed cycle count over the fixed scalars, as a mean.
func (r *m0Result) mean(sum uint64) float64 { return float64(sum) / float64(r.n) }

// randomScalars draws n scalars uniform in [1, n−1] of the group order.
func randomScalars(r *mrand.Rand, n int) []*big.Int {
	n1 := new(big.Int).Sub(ec.Order, big.NewInt(1))
	var ks []*big.Int
	for range n {
		b := make([]byte, 32)
		for i := range b {
			b[i] = byte(r.Uint32())
		}
		k := new(big.Int).SetBytes(b)
		ks = append(ks, k.Mod(k, n1).Add(k, big.NewInt(1)))
	}
	return ks
}

// runM0 measures the fixed scalars, the paper scalar, and checks the
// simulated results against the host evaluators on two of them.
func runM0() (*m0Result, error) {
	res := &m0Result{}
	t0 := time.Now()
	costs, err := profile.MeasureOpCosts()
	if err != nil {
		return nil, err
	}
	res.setup, res.costs = time.Since(t0), costs
	ks := randomScalars(seededRand(m0Seed, streamM0), m0Scalars)
	for _, k := range ks {
		kp, err := profile.MeasuredKP(costs, k)
		if err != nil {
			return nil, err
		}
		kg, err := profile.MeasuredKG(costs, k)
		if err != nil {
			return nil, err
		}
		res.kp, res.kg = addBreakdown(res.kp, kp), addBreakdown(res.kg, kg)
	}
	res.n = len(ks)
	if res.paperKP, err = profile.MeasuredKP(costs, paperScalar()); err != nil {
		return nil, err
	}
	if res.paperKG, err = profile.MeasuredKG(costs, paperScalar()); err != nil {
		return nil, err
	}
	for _, k := range []*big.Int{paperScalar(), ks[0]} {
		if err := checkSimulated(k); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkSimulated compares the simulator's kP and kG points with the
// host evaluators'.
func checkSimulated(k *big.Int) error {
	g := ec.Gen()
	kp, err := codegen.RunPointMulKP(k, g)
	if err != nil {
		return err
	}
	if kp.Point != core.ScalarMult(k, g) {
		return fmt.Errorf("%w: simulated kP disagrees with the host for k=%x", errWrongAnswer, k)
	}
	kg, err := codegen.RunPointMulKG(k, g, core.AlphaPoints(g, core.WFixed))
	if err != nil {
		return err
	}
	if kg.Point != core.ScalarBaseMult(k) {
		return fmt.Errorf("%w: simulated kG disagrees with the host for k=%x", errWrongAnswer, k)
	}
	return nil
}

// addBreakdown sums the phases, cycles and energy of two breakdowns.
func addBreakdown(a, b profile.Breakdown) profile.Breakdown {
	a.TNAFRepr += b.TNAFRepr
	a.TNAFPre += b.TNAFPre
	a.Multiply += b.Multiply
	a.MulPre += b.MulPre
	a.Square += b.Square
	a.Inversion += b.Inversion
	a.Support += b.Support
	a.Cycles += b.Cycles
	a.EnergyMicroJ += b.EnergyMicroJ
	return a
}
