package gf233

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Backend selection. The package carries two host field-arithmetic
// implementations, both on the 4x64-bit representation:
//
//	Backend64    — the portable host fast path: windowed LD
//	               multiplication and mask-cascade squaring in pure Go,
//	               on any host word size;
//	BackendCLMUL — the carry-less-multiply fast path: PCLMULQDQ assembly
//	               for multiplication and squaring plus Itoh–Tsujii
//	               inversion, selected by default where the CPU supports
//	               it (amd64 with the PCLMULQDQ feature flag).
//
// The paper-faithful 8x32-bit routines (MulLDFixed, SqrInterleaved,
// InvEEA, ...) are not a backend: internal/opcount and internal/codegen
// instrument and compile them to Thumb by name, and the tests use them
// as oracles.
//
// The 64-bit entry points MulTo, SqrTo, SqrN64 and MustInv64 — the
// ones internal/ec, internal/core and internal/engine call in their hot
// loops — dispatch between the windowed-LD and CLMUL implementations,
// so the whole point-arithmetic stack picks up BackendCLMUL with zero
// call-site changes. MulTo and SqrTo (with the non-dispatching AddTo)
// take a destination and pointer operands, the form of the toolchain's
// crypto/internal/fips140/edwards25519/field: the hot loops keep their
// coordinates in place and hand the assembly their addresses, so no
// 32-byte element is copied through the stack per operation. The
// destination may alias either operand. Mul64 and Sqr64 are by-value
// wrappers over them, for the benchmark ladder's field probes. The
// generic entry points Mul, Sqr, SqrN and Inv on Elem convert to the
// 64-bit representation and call them. The named
// variants (MulLDFixed, MulLD64, MulClmul, SqrInterleaved, SqrSpread64,
// SqrClmul, InvEEA, Inv64, InvItohTsujii64, ...) always run their own
// implementation regardless of the selection, for benchmarks and
// differential tests.
//
// Both backends compute bit-identical results — the differential fuzz
// targets in fuzz64_test.go are the executable statement of that
// contract — so switching backends never changes observable behavior,
// only speed.
//
// Selection rules:
//
//   - the default is the fastest supported backend: BackendCLMUL where
//     the CPU probe succeeds, Backend64 otherwise;
//   - the GF233_BACKEND environment variable ("64" or "clmul")
//     overrides the default at init, so CI and load harnesses can pin a
//     backend without code changes; a value naming an unsupported
//     backend (e.g. "clmul" on hardware without PCLMULQDQ) is ignored
//     and the default stands;
//   - SetBackend never stores an unsupported value: requesting
//     BackendCLMUL on hardware without it (or an out-of-range value)
//     degrades to Backend64, so the hot paths stay free of per-call
//     feature tests.

// Backend identifies a field-arithmetic implementation.
type Backend uint32

const (
	// Backend64 is the portable 4x64-bit implementation.
	Backend64 Backend = iota
	// BackendCLMUL is the 4x64-bit carry-less-multiply implementation
	// (PCLMULQDQ assembly plus Itoh–Tsujii inversion). Supported only
	// where HasCLMUL reports true.
	BackendCLMUL
)

// String returns the conventional short tag for the backend, or a
// distinct unknown(N) tag for values outside the defined set.
func (b Backend) String() string {
	switch b {
	case Backend64:
		return "64"
	case BackendCLMUL:
		return "clmul"
	default:
		return fmt.Sprintf("unknown(%d)", uint32(b))
	}
}

// ParseBackend maps the conventional short tags ("64", "clmul") back to
// Backend values — the format of the GF233_BACKEND environment variable
// and of command-line backend flags.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "64":
		return Backend64, nil
	case "clmul":
		return BackendCLMUL, nil
	default:
		return Backend64, fmt.Errorf("gf233: unknown backend %q (want 64 or clmul)", s)
	}
}

// HasCLMUL reports whether the processor supports the carry-less
// multiply instructions BackendCLMUL is built on.
func HasCLMUL() bool { return canCLMUL }

// Supported reports whether b can execute on this machine. Backend64
// is pure Go and always supported; BackendCLMUL needs the hardware
// probe to succeed.
func Supported(b Backend) bool {
	switch b {
	case Backend64:
		return true
	case BackendCLMUL:
		return canCLMUL
	default:
		return false
	}
}

// backend holds the current Backend. Atomic so tests and benchmarks can
// toggle it without racing concurrent field arithmetic.
var backend atomic.Uint32

// chooseBackend returns the init-time selection: the fastest supported
// backend, overridden by env (the GF233_BACKEND value) when it names a
// supported one.
func chooseBackend(env string) Backend {
	b := Backend64
	if canCLMUL {
		b = BackendCLMUL
	}
	if env != "" {
		if eb, err := ParseBackend(env); err == nil && Supported(eb) {
			b = eb
		}
	}
	return b
}

func init() {
	env := os.Getenv("GF233_BACKEND")
	if env != "" {
		// A malformed value is a CI/tooling typo, not the documented
		// unsupported-hardware degrade — say so instead of silently
		// running the default backend under a pinned-looking job.
		if _, err := ParseBackend(env); err != nil {
			fmt.Fprintf(os.Stderr, "gf233: ignoring GF233_BACKEND: %v\n", err)
		}
	}
	backend.Store(uint32(chooseBackend(env)))
}

// CurrentBackend returns the backend the generic entry points dispatch
// to.
func CurrentBackend() Backend { return Backend(backend.Load()) }

// SetBackend selects the backend used by the dispatching entry points
// (Mul, Sqr, SqrN, Inv and their 64-bit counterparts MulTo, SqrTo,
// SqrN64, SqrN64x3 and MustInv64) and returns the
// previous selection (convenient for defer-restore in tests and
// benchmarks). Requesting a backend this machine cannot run —
// BackendCLMUL without hardware support, or a value outside the defined
// set — stores Backend64 instead, so the dispatchers never observe an
// unexecutable selection; callers that must know whether the request
// took effect check Supported first or CurrentBackend after.
func SetBackend(b Backend) Backend {
	if !Supported(b) {
		b = Backend64
	}
	return Backend(backend.Swap(uint32(b)))
}

// Mul returns a*b via the dispatching MulTo.
func Mul(a, b Elem) Elem {
	x, y := ToElem64(a), ToElem64(b)
	MulTo(&x, &x, &y)
	return x.Elem()
}

// Sqr returns a squared via the dispatching SqrTo.
func Sqr(a Elem) Elem {
	x := ToElem64(a)
	SqrTo(&x, &x)
	return x.Elem()
}

// SqrN squares a n times (computes a^(2^n)), a helper for inversion
// chains and Frobenius powers. The whole chain runs in the 64-bit
// representation, paying the word-size conversion once.
func SqrN(a Elem, n int) Elem { return SqrN64(ToElem64(a), n).Elem() }

// Inv returns a^-1 via the inversion method of the selected backend:
// extended Euclidean on Backend64, Itoh–Tsujii on BackendCLMUL (where
// squaring is cheap enough that the multiplicative chain wins). It
// reports ok=false for the zero element.
func Inv(a Elem) (Elem, bool) {
	inv, ok := inv64Dispatch(ToElem64(a))
	return inv.Elem(), ok
}
