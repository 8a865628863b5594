package engine

import (
	"crypto/rand"
	"crypto/sha256"
	"testing"

	"repro/internal/core"
)

// modNResidue reports whether the batched mod-n inversion's words —
// the values and the prefix products that become their inverses — hold
// anything nonzero, over their whole capacity.
func modNResidue(s *batchScratch) bool {
	for _, v := range [][]core.Residue{s.nv[:cap(s.nv)], s.pfx[:cap(s.pfx)]} {
		for _, w := range v {
			if w != (core.Residue{}) {
				return true
			}
		}
	}
	return false
}

// TestBatchScratchScrubbedAfterBatch inspects the worker scratch for
// secret residue after a signing batch: the nonce sampling buffer, the
// nonce words and their prefix products must all be zero when
// processBatch returns — a pooled or worker-held scratch idles
// indefinitely, and these fields held nonce-derived values mid-batch.
// Both the fast and the hardened arm are checked.
func TestBatchScratchScrubbedAfterBatch(t *testing.T) {
	priv, err := core.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("residue inspection"))
	for _, hardened := range []bool{false, true} {
		s := newBatchScratch()
		const N = 6
		batch := make([]*request, N)
		for i := range batch {
			r := newRequest()
			r.op = opSign
			r.priv = priv
			r.digest = digest[:]
			r.rand = rand.Reader
			r.ct = hardened
			batch[i] = r
		}
		processBatch(s, batch)
		for i, r := range batch {
			if r.err != nil {
				t.Fatalf("hardened=%v: request %d failed: %v", hardened, i, r.err)
			}
			if r.nonce.Sign() == 0 {
				t.Fatalf("hardened=%v: request %d has no nonce (test setup broken)", hardened, i)
			}
		}
		if s.buf != [32]byte{} {
			t.Errorf("hardened=%v: nonce sampling buffer not scrubbed: %x", hardened, s.buf)
		}
		if len(s.pfx) != N {
			t.Fatalf("hardened=%v: %d prefix products for %d signatures (test setup broken)", hardened, len(s.pfx), N)
		}
		if modNResidue(s) {
			t.Errorf("hardened=%v: inversion state not scrubbed", hardened)
		}
		// The requests still hold their nonces (the caller reads r/s
		// after processBatch); release — the pool return path — must
		// scrub them.
		for i, r := range batch {
			r.release()
			if r.nonce.Sign() != 0 {
				t.Errorf("hardened=%v: request %d nonce state survived release", hardened, i)
			}
		}
	}
}

// TestBatchScratchScrubbedNoSigns covers the path the unconditional
// scrub exists for: a batch with NO signing requests must still leave
// the scratch residue-free (an earlier sign batch's state could
// otherwise idle in the pool under a pure-ECDH workload).
func TestBatchScratchScrubbedNoSigns(t *testing.T) {
	priv, err := core.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s := newBatchScratch()
	// Pollute the sign-path transients as a sign batch would.
	s.buf = [32]byte{1, 2, 3}
	s.nv = append(s.nv, core.Residue{42})
	s.pfx = append(s.pfx, core.Residue{99}, core.Residue{7})
	r := newRequest()
	r.op = opECDH
	r.priv = priv
	r.point = priv.Public
	processBatch(s, []*request{r})
	if s.buf != [32]byte{} || modNResidue(s) {
		t.Error("sign-path residue survived a non-signing batch")
	}
}
