package gf233

import (
	"math/rand"
	"testing"

	"repro/internal/gf2"
)

// boundary64 returns the deterministic corner-case elements the 64-bit
// backend is differentially tested on: identities, all-ones, the lone
// degree-232 bit, word-boundary bits of both layouts, and the
// neighborhood of the reduction trinomial x^233 + x^74 + 1.
func boundary64() []Elem {
	all := Elem{}
	for i := range all {
		all[i] = ^uint32(0)
	}
	all[NumWords-1] = TopMask
	bit := func(i int) Elem {
		var e Elem
		e[i/32] = 1 << (i % 32)
		return e
	}
	return []Elem{
		Zero,
		One,
		all,
		bit(232),
		bit(ReductionExp),
		bit(ReductionExp - 1),
		bit(ReductionExp + 1),
		bit(M - ReductionExp),
		bit(31), bit(32), bit(63), bit(64), bit(127), bit(128), bit(191), bit(192),
		Add(bit(232), One),
		Add(bit(232), bit(ReductionExp)),
		Add(Add(bit(232), bit(ReductionExp)), One),
	}
}

func TestElem64RoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(64))
	cases := boundary64()
	for i := 0; i < 200; i++ {
		cases = append(cases, randElem(rnd))
	}
	for _, a := range cases {
		if got := ToElem64(a).Elem(); got != a {
			t.Fatalf("round trip mismatch: %v -> %v", a, got)
		}
	}
}

func TestConstants64(t *testing.T) {
	if TopBits64 != 41 || TopMask64 != 1<<41-1 {
		t.Fatalf("top word layout: TopBits64=%d TopMask64=%#x", TopBits64, TopMask64)
	}
	if got := modWords64.Elem(); got != Elem(modWords) {
		t.Fatalf("modWords64 = %v, want %v", got, Elem(modWords))
	}
	if ToElem64(One) != One64 || ToElem64(Zero) != Zero64 {
		t.Fatal("identity conversion mismatch")
	}
}

func TestReduce64Oracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(65))
	f := Modulus()
	for i := 0; i < 500; i++ {
		var c [2 * NumWords64]uint64
		var c32 [2 * NumWords]uint32
		for j := range c {
			c[j] = rnd.Uint64()
			c32[2*j] = uint32(c[j])
			c32[2*j+1] = uint32(c[j] >> 32)
		}
		got := Reduce64(c).Elem()
		want := gf2.Mod(gf2.Poly(c32[:]), f)
		if !gf2.Equal(got.Poly(), want) {
			t.Fatalf("Reduce64 mismatch on %v:\n got %v\nwant %v",
				gf2.Poly(c32[:]), got.Poly(), want)
		}
	}
}

// mul64Variants is the set of 64-bit multiplication implementations
// that must agree with the 32-bit reference methods.
var mul64Variants = []struct {
	name string
	f    func(a, b Elem64) Elem64
}{
	{"Mul64", Mul64},
	{"MulKaratsuba64", MulKaratsuba64},
}

func TestMul64VsReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(66))
	cases := boundary64()
	var pairs [][2]Elem
	for _, a := range cases {
		for _, b := range cases {
			pairs = append(pairs, [2]Elem{a, b})
		}
	}
	for i := 0; i < 300; i++ {
		pairs = append(pairs, [2]Elem{randElem(rnd), randElem(rnd)})
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		want := MulLDFixed(a, b)
		if got := MulLD(a, b); got != want {
			t.Fatalf("reference methods disagree on %v * %v", a, b)
		}
		for _, v := range mul64Variants {
			got := v.f(ToElem64(a), ToElem64(b)).Elem()
			if got != want {
				t.Fatalf("%s(%v, %v) = %v, want %v", v.name, a, b, got, want)
			}
		}
	}
}

func TestSqr64VsReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(67))
	cases := boundary64()
	for i := 0; i < 300; i++ {
		cases = append(cases, randElem(rnd))
	}
	for _, a := range cases {
		want := SqrInterleaved(a)
		if got := Sqr64(ToElem64(a)).Elem(); got != want {
			t.Fatalf("Sqr64(%v) = %v, want %v", a, got, want)
		}
	}
	a := randElem(rnd)
	if got, want := SqrN64(ToElem64(a), 7).Elem(), SqrN(a, 7); got != want {
		t.Fatalf("SqrN64 mismatch: %v, want %v", got, want)
	}
	if got, want := Sqrt64(ToElem64(a)).Elem(), Sqrt(a); got != want {
		t.Fatalf("Sqrt64 mismatch: %v, want %v", got, want)
	}
}

func TestInv64VsReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(68))
	if _, ok := Inv64(Zero64); ok {
		t.Fatal("Inv64(0) reported ok")
	}
	cases := boundary64()[1:] // skip zero
	for i := 0; i < 100; i++ {
		if a := randElem(rnd); !a.IsZero() {
			cases = append(cases, a)
		}
	}
	for _, a := range cases {
		inv, ok := Inv64(ToElem64(a))
		if !ok {
			t.Fatalf("Inv64(%v) reported not ok", a)
		}
		ref, _ := InvEEA(a)
		if inv.Elem() != ref {
			t.Fatalf("Inv64(%v) = %v, want %v", a, inv.Elem(), ref)
		}
		if prod := Mul64(ToElem64(a), inv); prod != One64 {
			t.Fatalf("a * Inv64(a) = %v, want 1", prod.Elem())
		}
	}
}

// TestBackendDispatch pins the generic Elem entry points to the named
// 32-bit oracles on every supported backend.
func TestBackendDispatch(t *testing.T) {
	prev := CurrentBackend()
	defer SetBackend(prev)
	rnd := rand.New(rand.NewSource(69))
	a, b := randElem(rnd), randElem(rnd)
	sqrn := a
	for i := 0; i < 5; i++ {
		sqrn = SqrInterleaved(sqrn)
	}
	inv, _ := InvEEA(a)
	for _, bk := range []Backend{Backend64, BackendCLMUL} {
		if !Supported(bk) {
			continue
		}
		last := CurrentBackend()
		if got := SetBackend(bk); got != last {
			t.Fatalf("SetBackend returned %v, want previous %v", got, last)
		}
		if CurrentBackend() != bk {
			t.Fatalf("SetBackend(%v) did not take", bk)
		}
		if got, want := Mul(a, b), MulLDFixed(a, b); got != want {
			t.Fatalf("%v: Mul = %v, want MulLDFixed %v", bk, got, want)
		}
		if got, want := Sqr(a), SqrInterleaved(a); got != want {
			t.Fatalf("%v: Sqr = %v, want SqrInterleaved %v", bk, got, want)
		}
		if got := SqrN(a, 5); got != sqrn {
			t.Fatalf("%v: SqrN = %v, want 5x SqrInterleaved %v", bk, got, sqrn)
		}
		if got, ok := Inv(a); !ok || got != inv {
			t.Fatalf("%v: Inv = %v, %v, want InvEEA %v", bk, got, ok, inv)
		}
		if _, ok := Inv(Zero); ok {
			t.Fatalf("%v: Inv(0) reported ok", bk)
		}
	}
}
