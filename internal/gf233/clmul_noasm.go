//go:build !amd64

package gf233

// Stubs for architectures without the PCLMULQDQ assembly. canCLMUL is
// constant false, so the backend registry never selects BackendCLMUL
// (SetBackend degrades it to Backend64) and the exported CLMUL wrappers
// fall back to the portable 64-bit routines; the asm entry points below
// are therefore unreachable and exist only to satisfy the references
// from clmul.go and the dispatchers.

const canCLMUL = false

func mulClmulAsm(z, a, b *Elem64) { panic("gf233: CLMUL backend unavailable") }

func sqrClmulAsm(z, a *Elem64) { panic("gf233: CLMUL backend unavailable") }

func sqrNClmulAsm(z, a *Elem64, n int) { panic("gf233: CLMUL backend unavailable") }

func sqrN3ClmulAsm(x, y, z *Elem64, n int) { panic("gf233: CLMUL backend unavailable") }
