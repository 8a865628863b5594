package gf233

import (
	"encoding/binary"
	"testing"

	"repro/internal/gf2"
)

// Differential fuzzing of the 64-bit backend: every operation must be
// bit-identical to the 32-bit reference variants (LD methods A/B/C,
// interleaved squaring, EEA inversion) and to the arbitrary-precision
// gf2 polynomial oracle. The seed corpus covers the boundary inputs the
// reduction is most sensitive to: all-ones, the lone degree-232 bit,
// and the neighborhood of the trinomial x^233 + x^74 + 1.

// elemFromFuzz decodes 32 little-endian bytes into a reduced element,
// masking the bits above x^232.
func elemFromFuzz(b []byte) Elem {
	var a Elem
	for i := range a {
		a[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	a[NumWords-1] &= TopMask
	return a
}

func fuzzBytes(e Elem) []byte {
	out := make([]byte, 4*NumWords)
	for i, w := range e {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}

func seedCorpus(f *testing.F, pair bool) {
	cases := boundary64()
	for i, a := range cases {
		if pair {
			b := cases[(i+1)%len(cases)]
			f.Add(fuzzBytes(a), fuzzBytes(b))
		} else {
			f.Add(fuzzBytes(a))
		}
	}
}

// FuzzMul64VsRef cross-checks both pure-Go 64-bit multiplications
// against the three 32-bit LD variants and the gf2 big-polynomial
// oracle.
func FuzzMul64VsRef(f *testing.F) {
	seedCorpus(f, true)
	mod := Modulus()
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		if len(ab) < 4*NumWords || len(bb) < 4*NumWords {
			t.Skip()
		}
		a, b := elemFromFuzz(ab), elemFromFuzz(bb)
		want := gf2.Mod(gf2.Mul(a.Poly(), b.Poly()), mod)
		refs := []struct {
			name string
			got  Elem
		}{
			{"MulLD", MulLD(a, b)},
			{"MulLDRotating", MulLDRotating(a, b)},
			{"MulLDFixed", MulLDFixed(a, b)},
			{"MulLD64", MulLD64(ToElem64(a), ToElem64(b)).Elem()},
			{"MulKaratsuba64", MulKaratsuba64(ToElem64(a), ToElem64(b)).Elem()},
		}
		for _, r := range refs {
			if !gf2.Equal(r.got.Poly(), want) {
				t.Fatalf("%s(%v, %v) = %v, oracle %v", r.name, a, b, r.got.Poly(), want)
			}
		}
	})
}

// FuzzMulClmulVsRef cross-checks the PCLMULQDQ multiplication against
// the 32-bit reference, the windowed LD, and the gf2 oracle — all three
// backends must be bit-identical on every input. On hardware without
// CLMUL the wrapper degrades to MulLD64, so the target still runs (the
// comparison is then between the two pure-Go paths); the dispatching
// Mul64 is pinned to BackendCLMUL for the duration so the entry point
// every point-arithmetic loop calls is the thing being fuzzed.
func FuzzMulClmulVsRef(f *testing.F) {
	seedCorpus(f, true)
	mod := Modulus()
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		if len(ab) < 4*NumWords || len(bb) < 4*NumWords {
			t.Skip()
		}
		a, b := elemFromFuzz(ab), elemFromFuzz(bb)
		a64, b64 := ToElem64(a), ToElem64(b)
		want := gf2.Mod(gf2.Mul(a.Poly(), b.Poly()), mod)
		if got := MulClmul(a64, b64).Elem(); !gf2.Equal(got.Poly(), want) {
			t.Fatalf("MulClmul(%v, %v) = %v, oracle %v", a, b, got.Poly(), want)
		}
		if got, ld := MulClmul(a64, b64), MulLD64(a64, b64); got != ld {
			t.Fatalf("MulClmul(%v, %v) = %v, MulLD64 %v", a, b, got.Elem(), ld.Elem())
		}
		if got, ref := MulClmul(a64, b64).Elem(), MulLDFixed(a, b); got != ref {
			t.Fatalf("MulClmul(%v, %v) = %v, 32-bit reference %v", a, b, got, ref)
		}
		prev := SetBackend(BackendCLMUL)
		got := Mul64(a64, b64)
		SetBackend(prev)
		if got != MulClmul(a64, b64) {
			t.Fatalf("dispatching Mul64 diverged from MulClmul on %v * %v", a, b)
		}
	})
}

// checkSqrN64x3 runs SqrN64x3 under backend bk on three chains derived
// from a (a, a², a + 1), at chain lengths from the empty chain to a
// whole field size, and checks each coordinate against a SqrSpread64
// loop. Under BackendCLMUL that is the interleaved assembly kernel
// (which degrades to the portable loop without hardware support).
func checkSqrN64x3(t *testing.T, bk Backend, a Elem64) {
	t.Helper()
	in := [3]Elem64{a, SqrSpread64(a), Add64(a, One64)}
	prev := SetBackend(bk)
	defer SetBackend(prev)
	for _, n := range []int{0, 1, 2, 5, 13, 29, 232} {
		got := in
		SqrN64x3(&got[0], &got[1], &got[2], n)
		for c := range in {
			want := in[c]
			for i := 0; i < n; i++ {
				want = SqrSpread64(want)
			}
			if got[c] != want {
				t.Fatalf("backend %v: SqrN64x3 chain %d of %v, n=%d: %v, want %v",
					bk, c, a.Elem(), n, got[c].Elem(), want.Elem())
			}
		}
	}
}

// FuzzSqrInv64VsRef cross-checks 64-bit squaring (single and the
// portable three-chain fallback) and inversion against the 32-bit
// reference and the gf2 oracle, plus the a * a^-1 = 1 field identity.
func FuzzSqrInv64VsRef(f *testing.F) {
	seedCorpus(f, false)
	mod := Modulus()
	f.Fuzz(func(t *testing.T, ab []byte) {
		if len(ab) < 4*NumWords {
			t.Skip()
		}
		a := elemFromFuzz(ab)
		a64 := ToElem64(a)

		wantSqr := gf2.Mod(gf2.Mul(a.Poly(), a.Poly()), mod)
		if got := SqrSpread64(a64).Elem(); !gf2.Equal(got.Poly(), wantSqr) {
			t.Fatalf("SqrSpread64(%v) = %v, oracle %v", a, got.Poly(), wantSqr)
		}
		if got, want := SqrSpread64(a64).Elem(), SqrInterleaved(a); got != want {
			t.Fatalf("SqrSpread64(%v) = %v, reference %v", a, got, want)
		}
		checkSqrN64x3(t, Backend64, a64)

		inv, ok := Inv64(a64)
		refInv, refOK := InvEEA(a)
		if ok != refOK {
			t.Fatalf("Inv64(%v) ok=%v, reference ok=%v", a, ok, refOK)
		}
		if !ok {
			return
		}
		if inv.Elem() != refInv {
			t.Fatalf("Inv64(%v) = %v, reference %v", a, inv.Elem(), refInv)
		}
		if prod := MulLD64(a64, inv); prod != One64 {
			t.Fatalf("%v * Inv64 = %v, want 1", a, prod.Elem())
		}
	})
}

// FuzzSqrInvClmulVsRef cross-checks the PCLMULQDQ squaring (single,
// n-fold and the three-chain kernel) and the Itoh–Tsujii inversion
// against the pure-Go 64-bit path, the 32-bit reference and the gf2
// oracle. The n-fold squaring is exercised at the exact chain lengths
// the Itoh–Tsujii inversion uses, which covers the lazily reduced
// assembly loop at every hop of the addition chain.
func FuzzSqrInvClmulVsRef(f *testing.F) {
	seedCorpus(f, false)
	mod := Modulus()
	f.Fuzz(func(t *testing.T, ab []byte) {
		if len(ab) < 4*NumWords {
			t.Skip()
		}
		a := elemFromFuzz(ab)
		a64 := ToElem64(a)

		wantSqr := gf2.Mod(gf2.Mul(a.Poly(), a.Poly()), mod)
		if got := SqrClmul(a64).Elem(); !gf2.Equal(got.Poly(), wantSqr) {
			t.Fatalf("SqrClmul(%v) = %v, oracle %v", a, got.Poly(), wantSqr)
		}
		if got, want := SqrClmul(a64), SqrSpread64(a64); got != want {
			t.Fatalf("SqrClmul(%v) = %v, SqrSpread64 %v", a, got.Elem(), want.Elem())
		}
		for _, n := range []int{0, 1, 3, 7, 14, 29, 58, 116, 232} {
			want := a64
			for i := 0; i < n; i++ {
				want = SqrSpread64(want)
			}
			if got := SqrNClmul(a64, n); got != want {
				t.Fatalf("SqrNClmul(%v, %d) = %v, want %v", a, n, got.Elem(), want.Elem())
			}
		}
		checkSqrN64x3(t, BackendCLMUL, a64)

		itInv, itOK := InvItohTsujii64(a64)
		refInv, refOK := Inv64(a64)
		if itOK != refOK {
			t.Fatalf("InvItohTsujii64(%v) ok=%v, Inv64 ok=%v", a, itOK, refOK)
		}
		if !itOK {
			return
		}
		if itInv != refInv {
			t.Fatalf("InvItohTsujii64(%v) = %v, Inv64 %v", a, itInv.Elem(), refInv.Elem())
		}
		prev := SetBackend(BackendCLMUL)
		dispInv, dispOK := inv64Dispatch(a64)
		prod := Mul64(a64, itInv)
		SetBackend(prev)
		if !dispOK || dispInv != refInv {
			t.Fatalf("dispatched inversion of %v = %v (ok=%v), want %v", a, dispInv.Elem(), dispOK, refInv.Elem())
		}
		if prod != One64 {
			t.Fatalf("%v * InvItohTsujii64 = %v, want 1", a, prod.Elem())
		}
	})
}
