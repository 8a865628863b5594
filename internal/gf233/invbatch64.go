package gf233

// Batched inversion for the 64-bit backend. The batch engine
// (internal/engine) converts many independent López-Dahab results to
// affine at once; Montgomery's trick turns the N field inversions that
// conversion needs into one Inv64 plus 3(N−1) multiplications, which is
// where batching its requests pays off. The 32-bit InvBatch (inv.go)
// stays the precomputation-layer variant; this one is the concurrent
// hot path, so it is zero-tolerant and allocation-free.

// InvBatch64 replaces every nonzero element of a with its inverse using
// Montgomery's trick: one Inv64 plus 3(n−1) multiplications in place of
// n inversions. Zero elements have no inverse and are left as zero —
// batch callers use Z = 0 (the point at infinity) as a skip marker, so
// tolerating zeros here keeps the batch kernel branch-light.
//
// scratch is caller-provided space with len(scratch) >= len(a); the
// function allocates nothing, which is what lets the batch engine's
// steady state run at 0 allocs/op. Contents of scratch are overwritten.
func InvBatch64(a, scratch []Elem64) {
	if len(a) == 0 {
		return
	}
	scratch = scratch[:len(a)]
	// scratch[i] = product of the nonzero elements before index i
	// (exclusive prefix; One64 when there are none).
	p := One64
	for i := range a {
		scratch[i] = p
		if !a[i].IsZero() {
			MulTo(&p, &p, &a[i])
		}
	}
	// p is a product of nonzero elements (or One64 if all were zero),
	// so it is always invertible.
	inv := MustInv64(p)
	for i := len(a) - 1; i >= 0; i-- {
		if a[i].IsZero() {
			continue
		}
		// inv = (a[0]·…·a[i])^-1 over the nonzero elements, so
		// multiplying by the exclusive prefix isolates a[i]^-1.
		MulTo(&scratch[i], &scratch[i], &inv)
		MulTo(&inv, &inv, &a[i])
		a[i] = scratch[i]
	}
}
