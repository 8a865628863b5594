package gf233

// Named entry points of the CLMUL backend. Like the other named
// variants (MulLDFixed, MulLD64, SqrSpread64, Inv64 ...), these always
// run their own implementation regardless of the backend selection, so
// benchmarks and differential tests can pin them; the backend-dispatched
// hot paths are MulTo/SqrTo/SqrN64/MustInv64 in the sibling files. On
// hardware without PCLMULQDQ each wrapper degrades to the portable
// 64-bit routine, which is bit-identical, so calling them is always
// safe — only HasCLMUL-gated benchmarks care about the difference.

// MulClmul returns a*b via the PCLMULQDQ backend (one outer Karatsuba
// split at 128 bits over 3-multiply inner Karatsubas: 9 carry-less
// multiplies, then the branchless in-XMM fold). Falls back to MulLD64
// without hardware support.
func MulClmul(a, b Elem64) Elem64 {
	mulClmulTo(&a, &a, &b)
	return a
}

// mulClmulTo is MulClmul in pointer form: *z = a*b, z may alias a or b.
func mulClmulTo(z, a, b *Elem64) {
	if !canCLMUL {
		*z = MulLD64(*a, *b)
		return
	}
	mulClmulAsm(z, a, b)
}

// SqrClmul returns a squared via the PCLMULQDQ backend: four
// self-products spread the bits to double width (PCLMULQDQ(w,w) is
// exactly the squaring bit-interleave), then the in-XMM fold reduces.
// Falls back to SqrSpread64 without hardware support.
func SqrClmul(a Elem64) Elem64 {
	if !canCLMUL {
		return SqrSpread64(a)
	}
	var z Elem64
	sqrClmulAsm(&z, &a)
	return z
}

// SqrNClmul squares a n times (computes a^(2^n)) in a single assembly
// loop with lazily reduced iterations — the workhorse of the
// Itoh–Tsujii inversion chain, whose 232 dependent squarings would
// otherwise pay a call and a full reduction each. Falls back to the
// portable squaring loop without hardware support.
func SqrNClmul(a Elem64, n int) Elem64 {
	sqrNClmulTo(&a, &a, n)
	return a
}

// sqrNClmulTo is SqrNClmul in pointer form: *z = a^(2^n), z may alias
// a.
func sqrNClmulTo(z, a *Elem64, n int) {
	if !canCLMUL {
		s := *a
		for i := 0; i < n; i++ {
			s = SqrSpread64(s)
		}
		*z = s
		return
	}
	sqrNClmulAsm(z, a, n)
}
