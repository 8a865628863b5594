//go:build amd64

package gf233

// amd64 binding of the CLMUL backend (clmul_amd64.s). The asm routines
// execute PCLMULQDQ unconditionally, so every entry into them is gated
// on canCLMUL: the exported wrappers (clmul.go) check it explicitly,
// and the backend registry (backend.go) refuses to select BackendCLMUL
// when the probe failed, which keeps the dispatching hot paths
// (Mul64, Sqr64, SqrN64, SqrN64x3, MustInv64) free of a second feature test.

//go:noescape
func mulClmulAsm(z, a, b *Elem64)

//go:noescape
func sqrClmulAsm(z, a *Elem64)

//go:noescape
func sqrNClmulAsm(z, a *Elem64, n int)

//go:noescape
func sqrN3ClmulAsm(x, y, z *Elem64, n int)

// cpuidECX1 returns ECX of CPUID leaf 1 (feature flags).
func cpuidECX1() uint32

// pclmulBit is the PCLMULQDQ feature flag, CPUID.01H:ECX[1].
const pclmulBit = 1 << 1

// canCLMUL reports whether the processor executes PCLMULQDQ. The probe
// runs once at package initialisation, before the backend registry's
// init selects the default backend. SSE2 — the only other ISA the asm
// uses — is part of the amd64 baseline.
var canCLMUL = cpuidECX1()&pclmulBit != 0
