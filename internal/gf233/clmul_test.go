package gf233

import (
	"math/rand"
	"testing"
)

// Deterministic unit coverage of the CLMUL backend: the boundary corpus
// plus random elements, cross-checked against the pure-Go 64-bit path
// (itself fuzz-checked against the 32-bit reference and the gf2
// oracle). The differential fuzz targets FuzzMulClmulVsRef and
// FuzzSqrInvClmulVsRef extend the same checks to arbitrary inputs.

func clmulCases(t *testing.T) []Elem64 {
	t.Helper()
	rnd := rand.New(rand.NewSource(233))
	cases := make([]Elem64, 0, 64)
	for _, e := range boundary64() {
		cases = append(cases, ToElem64(e))
	}
	for i := 0; i < 40; i++ {
		cases = append(cases, ToElem64(Rand(rnd.Uint32)))
	}
	return cases
}

func TestMulClmulMatchesLD(t *testing.T) {
	cases := clmulCases(t)
	for _, a := range cases {
		for _, b := range cases {
			if got, want := MulClmul(a, b), MulLD64(a, b); got != want {
				t.Fatalf("MulClmul(%v, %v) = %v, MulLD64 %v", a, b, got, want)
			}
		}
	}
}

func TestSqrClmulMatchesSpread(t *testing.T) {
	for _, a := range clmulCases(t) {
		if got, want := SqrClmul(a), SqrSpread64(a); got != want {
			t.Fatalf("SqrClmul(%v) = %v, SqrSpread64 %v", a, got, want)
		}
		for _, n := range []int{0, 1, 2, 5, 29, 116, M - 1} {
			want := a
			for i := 0; i < n; i++ {
				want = SqrSpread64(want)
			}
			if got := SqrNClmul(a, n); got != want {
				t.Fatalf("SqrNClmul(%v, %d) = %v, want %v", a, n, got, want)
			}
		}
		checkSqrN64x3(t, BackendCLMUL, a)
	}
}

func TestInvItohTsujii64MatchesEEA(t *testing.T) {
	for _, a := range clmulCases(t) {
		it, itOK := InvItohTsujii64(a)
		eea, eeaOK := Inv64(a)
		if itOK != eeaOK {
			t.Fatalf("InvItohTsujii64(%v) ok=%v, Inv64 ok=%v", a, itOK, eeaOK)
		}
		if itOK && it != eea {
			t.Fatalf("InvItohTsujii64(%v) = %v, Inv64 %v", a, it, eea)
		}
	}
	if _, ok := InvItohTsujii64(Zero64); ok {
		t.Fatal("InvItohTsujii64(0) reported ok")
	}
}

// TestDispatch64UnderCLMUL pins the dispatching entry points to each
// backend in turn and checks they stay bit-identical — the contract
// that lets ec/core/engine pick up backend switches with zero call-site
// changes.
func TestDispatch64UnderCLMUL(t *testing.T) {
	cases := clmulCases(t)
	prev := CurrentBackend()
	defer SetBackend(prev)
	for _, a := range cases {
		wantMul := MulLD64(a, cases[0])
		wantSqr := SqrSpread64(a)
		wantSqrN := a
		for i := 0; i < 29; i++ {
			wantSqrN = SqrSpread64(wantSqrN)
		}
		wantInv, wantOK := Inv64(a)
		for _, bk := range []Backend{Backend64, BackendCLMUL} {
			SetBackend(bk)
			if got := Mul64(a, cases[0]); got != wantMul {
				t.Fatalf("backend %v: Mul64(%v) = %v, want %v", bk, a, got, wantMul)
			}
			if got := Sqr64(a); got != wantSqr {
				t.Fatalf("backend %v: Sqr64(%v) = %v, want %v", bk, a, got, wantSqr)
			}
			if got := SqrN64(a, 29); got != wantSqrN {
				t.Fatalf("backend %v: SqrN64(%v, 29) = %v, want %v", bk, a, got, wantSqrN)
			}
			if got, ok := inv64Dispatch(a); ok != wantOK || (ok && got != wantInv) {
				t.Fatalf("backend %v: inversion of %v = %v (ok=%v), want %v (ok=%v)",
					bk, a, got, ok, wantInv, wantOK)
			}
		}
	}
}

// TestZeroAllocClmul is the allocation guard for the CLMUL hot paths:
// Mul/Sqr/SqrN/SqrN64x3/Inv must not allocate, or every point operation
// built on them loses its 0 allocs/op property. Runs with whatever the
// probe allows (the wrappers degrade to the pure-Go paths without
// hardware support, which must be allocation-free too).
func TestZeroAllocClmul(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	a := ToElem64(MustHex("1ad42b2f70c6b2feac5b1e1b8dd1fe09301d38cbc861f2d4c7963c2c"))
	b := ToElem64(MustHex("0cf4e0914d2e72b1a58c9c2ee58452b3a6a3a84ba8a1f80d0b8b4d15"))
	prev := SetBackend(BackendCLMUL)
	defer SetBackend(prev)
	var sink Elem64
	x, y, z := a, b, Add64(a, b)
	checks := []struct {
		name string
		f    func()
	}{
		{"MulClmul", func() { sink = MulClmul(a, b) }},
		{"SqrClmul", func() { sink = SqrClmul(a) }},
		{"SqrNClmul", func() { sink = SqrNClmul(a, 58) }},
		{"Mul64", func() { sink = Mul64(a, b) }},
		{"Sqr64", func() { sink = Sqr64(a) }},
		{"MulTo", func() { MulTo(&x, &x, &y) }},
		{"SqrTo", func() { SqrTo(&y, &y) }},
		{"SqrN64", func() { sink = SqrN64(a, 58) }},
		{"SqrN64x3", func() { SqrN64x3(&x, &y, &z, 58) }},
		{"InvItohTsujii64", func() { sink, _ = InvItohTsujii64(a) }},
		{"MustInv64", func() { sink = MustInv64(a) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(200, c.f); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
		}
	}
	_ = sink
}

// TestBackendString is the exhaustiveness guard of the satellite fix:
// every defined backend has its own tag and unknown values print a
// distinct marker instead of silently claiming to be a real backend.
func TestBackendString(t *testing.T) {
	cases := []struct {
		b    Backend
		want string
	}{
		{Backend64, "64"},
		{BackendCLMUL, "clmul"},
		{Backend(2), "unknown(2)"},
		{Backend(97), "unknown(97)"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("Backend(%d).String() = %q, want %q", uint32(c.b), got, c.want)
		}
	}
}

func TestParseBackend(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"32", 0, false},
		{"64", Backend64, true},
		{"clmul", BackendCLMUL, true},
		{"", 0, false},
		{"CLMUL", 0, false},
		{"128", 0, false},
	} {
		got, err := ParseBackend(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

// TestChooseBackend covers the init-time selection rules, including the
// GF233_BACKEND override that lets CI pin the fallback path.
func TestChooseBackend(t *testing.T) {
	def := chooseBackend("")
	if HasCLMUL() && def != BackendCLMUL {
		t.Errorf("default backend = %v on CLMUL hardware, want clmul", def)
	}
	if !HasCLMUL() && def == BackendCLMUL {
		t.Error("default backend is clmul without hardware support")
	}
	if got := chooseBackend("32"); got != def {
		t.Errorf("chooseBackend(32) = %v, want default %v", got, def)
	}
	if got := chooseBackend("64"); got != Backend64 {
		t.Errorf("chooseBackend(64) = %v", got)
	}
	if got := chooseBackend("clmul"); got != def && got != BackendCLMUL {
		t.Errorf("chooseBackend(clmul) = %v", got)
	}
	// Unrecognized values leave the default in place.
	if got := chooseBackend("sse9"); got != def {
		t.Errorf("chooseBackend(sse9) = %v, want default %v", got, def)
	}
}

// TestSetBackendUnsupported: requesting CLMUL on hardware without it,
// or a value outside the defined set, must degrade to Backend64 rather
// than leave the dispatchers pointing at an unexecutable path.
func TestSetBackendUnsupported(t *testing.T) {
	prev := CurrentBackend()
	defer SetBackend(prev)
	SetBackend(Backend(42))
	if got := CurrentBackend(); got != Backend64 {
		t.Errorf("SetBackend(unknown) left backend %v, want 64", got)
	}
	if !HasCLMUL() {
		SetBackend(BackendCLMUL)
		if got := CurrentBackend(); got != Backend64 {
			t.Errorf("SetBackend(clmul) without hardware left backend %v, want 64", got)
		}
	}
}
