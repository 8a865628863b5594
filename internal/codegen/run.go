package codegen

import (
	"fmt"

	"repro/internal/armv6m"
	"repro/internal/gf233"
	"repro/internal/thumb"
)

// Simulated memory map: code at the bottom, operands in a data segment,
// the stack at the top of a 64 KiB RAM (generous for an M0+-class MCU,
// which keeps the harness simple).
const (
	memSize     = 0x10000
	xAddr       = 0x8000 // 8 words
	yAddr       = 0x8040 // 8 words
	outAddr     = 0x8080 // 8 words
	scratchAddr = 0x8100 // 512 B (LUT rows / expansion scratch)
	tableAddr   = 0x8400 // 512 B (256 squaring halfwords)
	maxCycles   = 50_000_000
)

// Stats captures the execution profile of one routine invocation.
type Stats struct {
	Cycles     uint64
	Retired    uint64
	ClassCount [armv6m.NumClasses]uint64
	ClassCyc   [armv6m.NumClasses]uint64
}

// Routine is an assembled field-arithmetic routine ready to run on the
// simulator.
type Routine struct {
	prog  *thumb.Program
	entry uint32
	name  string
}

// NewRoutine assembles src and prepares the entry point at the given
// label.
func NewRoutine(src, label string) (*Routine, error) {
	prog, err := thumb.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("codegen: assembling %s: %w", label, err)
	}
	if prog.Len() > xAddr {
		return nil, fmt.Errorf("codegen: %s image (%d bytes) collides with the data segment", label, prog.Len())
	}
	entry, err := prog.Entry(label)
	if err != nil {
		return nil, err
	}
	return &Routine{prog: prog, entry: entry, name: label}, nil
}

// Name returns the routine's entry label.
func (r *Routine) Name() string { return r.name }

// machine prepares a fresh simulator with the routine image loaded.
func (r *Routine) machine() *armv6m.Machine {
	m := armv6m.New(memSize)
	m.LoadProgram(0, r.prog.Code)
	tab := gf233.SquareTable()
	for i, v := range tab {
		m.WriteHalf(uint32(tableAddr+2*i), uint32(v))
	}
	return m
}

func writeElem(m *armv6m.Machine, addr uint32, e gf233.Elem) {
	for i, w := range e {
		m.WriteWord(addr+uint32(4*i), w)
	}
}

func readElem(m *armv6m.Machine, addr uint32) gf233.Elem {
	var e gf233.Elem
	for i := range e {
		e[i] = m.ReadWord(addr + uint32(4*i))
	}
	return e
}

func stats(m *armv6m.Machine, cycles uint64) Stats {
	return Stats{
		Cycles:     cycles,
		Retired:    m.Retired,
		ClassCount: m.ClassCount,
		ClassCyc:   m.ClassCyc,
	}
}

// RunMul executes a multiplication routine (ABI: x, y, out, scratch)
// and returns the reduced product.
func (r *Routine) RunMul(a, b gf233.Elem) (gf233.Elem, Stats, error) {
	m := r.machine()
	writeElem(m, xAddr, a)
	writeElem(m, yAddr, b)
	m.R[0], m.R[1], m.R[2], m.R[3] = xAddr, yAddr, outAddr, scratchAddr
	cycles, err := m.Call(r.entry, maxCycles)
	if err != nil {
		return gf233.Zero, Stats{}, err
	}
	return readElem(m, outAddr), stats(m, cycles), nil
}

// RunSqr executes a squaring routine (ABI: x, out, table, scratch).
func (r *Routine) RunSqr(a gf233.Elem) (gf233.Elem, Stats, error) {
	m := r.machine()
	writeElem(m, xAddr, a)
	m.R[0], m.R[1], m.R[2], m.R[3] = xAddr, outAddr, tableAddr, scratchAddr
	cycles, err := m.Call(r.entry, maxCycles)
	if err != nil {
		return gf233.Zero, Stats{}, err
	}
	return readElem(m, outAddr), stats(m, cycles), nil
}

// RunLUT executes the table-generation-only routine (ABI: y, scratch).
func (r *Routine) RunLUT(b gf233.Elem) (Stats, error) {
	m := r.machine()
	writeElem(m, yAddr, b)
	m.R[1], m.R[3] = yAddr, scratchAddr
	cycles, err := m.Call(r.entry, maxCycles)
	if err != nil {
		return Stats{}, err
	}
	return stats(m, cycles), nil
}

// Routines bundles the Table 5/6 field-arithmetic variants, assembled
// once.
type Routines struct {
	MulFixedASM *Routine // the paper's hand-optimised multiplication
	MulFixedC   *Routine // compiler-style fixed (memory-resident)
	MulRotC     *Routine // compiler-style rotating window
	SqrASM      *Routine // interleaved squaring
	SqrC        *Routine // separate-pass squaring
	LUT         *Routine // table generation only
}

// Build assembles every generated routine.
func Build() (*Routines, error) {
	var r Routines
	for _, spec := range []struct {
		dst   **Routine
		src   string
		label string
	}{
		{&r.MulFixedASM, MulFixedASM(), "mul_fixed_asm"},
		{&r.MulFixedC, MulFixedC(), "mul_fixed_c"},
		{&r.MulRotC, MulRotatingC(), "mul_rotating_c"},
		{&r.SqrASM, SqrASM(), "sqr_asm"},
		{&r.SqrC, SqrC(), "sqr_c"},
		{&r.LUT, LUTOnly(), "lut_only"},
	} {
		rt, err := NewRoutine(spec.src, spec.label)
		if err != nil {
			return nil, err
		}
		*spec.dst = rt
	}
	return &r, nil
}
