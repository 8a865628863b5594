package gf233

// 64-bit squaring: the same bit-spreading map as the 32-bit path
// (§3.2.4), but computed with branchless mask-and-shift interleaving
// instead of the byte table — on a 64-bit host five logic steps beat
// four L1 loads per output word. The double-width expansion lives in
// scalar locals and is folded by the branchless reduction, so the
// "interleaved" property of the paper's squaring — never storing the
// upper half to memory — holds here by construction.

// spread64 expands the 32 bits of w to the even bit positions of a
// 64-bit word (bit i of w becomes bit 2i).
func spread64(w uint32) uint64 {
	v := uint64(w)
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// SqrTo sets *z = a² in the 64-bit representation, via the squaring
// of the selected backend: PCLMULQDQ self-products when BackendCLMUL is
// active, the mask-cascade spread otherwise. Like MulTo, this is the
// dispatching entry point the point-arithmetic hot loops call; z may
// alias a.
func SqrTo(z, a *Elem64) {
	if CurrentBackend() == BackendCLMUL {
		sqrClmulAsm(z, a)
		return
	}
	*z = SqrSpread64(*a)
}

// Sqr64 returns a squared via SqrTo, for callers that hold values.
func Sqr64(a Elem64) Elem64 {
	SqrTo(&a, &a)
	return a
}

// SqrSpread64 returns a squared via the portable mask-cascade spread.
// The double-width expansion never touches memory: all eight words
// stay in scalar locals through the branchless reduction.
func SqrSpread64(a Elem64) Elem64 {
	return reduce64Regs(
		spread64(uint32(a[0])), spread64(uint32(a[0]>>32)),
		spread64(uint32(a[1])), spread64(uint32(a[1]>>32)),
		spread64(uint32(a[2])), spread64(uint32(a[2]>>32)),
		spread64(uint32(a[3])), spread64(uint32(a[3]>>32)),
	)
}

// SqrN64 squares a n times (computes a^(2^n)) without leaving the
// 64-bit representation. On the CLMUL backend the whole chain runs
// inside one assembly loop with lazily reduced iterations, which is
// what makes the Itoh–Tsujii inversion's 232 dependent squarings
// cheap.
func SqrN64(a Elem64, n int) Elem64 {
	if CurrentBackend() == BackendCLMUL {
		var z Elem64
		sqrNClmulAsm(&z, &a, n)
		return z
	}
	for i := 0; i < n; i++ {
		a = SqrSpread64(a)
	}
	return a
}

// SqrN64x3 squares x, y and z in place n times each — τ^n of a
// López–Dahab point, whose coordinates are three independent chains.
// On the CLMUL backend one assembly loop runs the three lazily reduced
// chains interleaved, so each hides the others' fold latency; the
// results equal three SqrN64 calls.
func SqrN64x3(x, y, z *Elem64, n int) {
	if CurrentBackend() == BackendCLMUL {
		sqrN3ClmulAsm(x, y, z, n)
		return
	}
	for i := 0; i < n; i++ {
		*x, *y, *z = SqrSpread64(*x), SqrSpread64(*y), SqrSpread64(*z)
	}
}

// Sqrt64 returns the field square root a^(2^(m-1)) in the 64-bit
// backend.
func Sqrt64(a Elem64) Elem64 { return SqrN64(a, M-1) }
