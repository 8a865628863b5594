package engine

// Differential fuzzer for the cross-batch multi-scalar verification
// kernel: every verdict BatchVerifyRecoverable hands back must be
// bit-identical to the one-shot joint-ladder verifier's, on all three
// field backends, for any mix of valid signatures, edge-case scalar
// components (0, 1, n−1, n, ≥n as r or s), corrupted signatures,
// wrong hints, missing hints, swapped digests and small-order-nonce
// forgeries (off-subgroup recovered R). The fuzz input is a
// mutation script over a fixed valid batch, so the fuzzer explores
// batch compositions — including mixed batches where the aggregate
// check fails and the fallback must identify exactly the culprits —
// rather than raw bytes. Wired into `make ci` via the fuzz target;
// longer runs: go test ./internal/engine -run '^$' -fuzz=FuzzMultiScalarVsJoint

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf233"
	"repro/internal/sign"
)

func FuzzMultiScalarVsJoint(f *testing.F) {
	privs, pubs, digests, sigs, hints := recoverableFixture(f, 1000, 16, 3)
	// Per-entry small-order-nonce forgeries (R = k·G + T, ord(T) | 4):
	// hint-recoverable, one-shot-invalid, and crafted so the aggregate
	// residual cancels for a quarter to half of the random weights —
	// the cofactor soundness shape mutation 12 swaps in.
	rnd := rand.New(rand.NewSource(1001))
	torsions := smallOrderTorsions()
	forgedSigs := make([]*Signature, len(pubs))
	forgedHints := make([]byte, len(pubs))
	for i := range pubs {
		forgedSigs[i], forgedHints[i] = forgeSmallOrderNonce(f, rnd, privs[i%3], digests[i], torsions[i%len(torsions)])
	}

	f.Add([]byte{})                           // all valid, pure LC path
	f.Add([]byte{8, 8, 8, 8})                 // corrupted prefix: culprit identification
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7})        // every scalar edge in one batch
	f.Add([]byte{9, 10, 9, 10, 9, 10, 9, 10}) // hint tampering only
	f.Add([]byte{12, 12, 12, 12})             // small-order nonce forgeries
	f.Add([]byte{0, 11, 0, 8, 0, 9, 0, 10, 0, 1, 0, 4, 0, 6, 0, 2})

	f.Fuzz(func(t *testing.T, script []byte) {
		n := len(pubs)
		ds := make([][]byte, n)
		ss := make([]*Signature, n)
		hs := make([]byte, n)
		copy(ds, digests)
		copy(ss, sigs)
		copy(hs, hints)
		for i := 0; i < n && i < len(script); i++ {
			switch script[i] % 13 {
			case 0: // untouched
			case 1:
				ss[i] = &Signature{R: big.NewInt(0), S: ss[i].S}
			case 2:
				ss[i] = &Signature{R: big.NewInt(1), S: ss[i].S}
			case 3:
				ss[i] = &Signature{R: new(big.Int).Sub(ec.Order, big.NewInt(1)), S: ss[i].S}
			case 4:
				ss[i] = &Signature{R: new(big.Int).Set(ec.Order), S: ss[i].S}
			case 5:
				ss[i] = &Signature{R: new(big.Int).Lsh(ec.Order, 1), S: ss[i].S}
			case 6:
				ss[i] = &Signature{R: ss[i].R, S: big.NewInt(0)}
			case 7:
				ss[i] = &Signature{R: ss[i].R, S: new(big.Int).Set(ec.Order)}
			case 8: // corrupted but in-range s: the culprit shape
				ss[i] = &Signature{R: ss[i].R, S: new(big.Int).Xor(ss[i].S, big.NewInt(int64(script[i])+2))}
			case 9: // wrong (but usable) hint on a valid signature
				hs[i] = (hs[i] + 1 + script[i]>>4) % 8
			case 10: // no hint: plain per-request path
				hs[i] = sign.HintNone + script[i]%8
			case 11: // digest swap
				ds[i] = digests[(i+1)%n]
			case 12: // small-order nonce forgery: off-subgroup R
				ss[i] = forgedSigs[i]
				hs[i] = forgedHints[i]
			}
		}
		want := make([]bool, n)
		for i := range want {
			want[i] = sign.Verify(pubs[i], ds[i], ss[i])
		}
		prev := gf233.CurrentBackend()
		defer gf233.SetBackend(prev)
		for _, b := range []gf233.Backend{gf233.Backend64, gf233.BackendCLMUL} {
			gf233.SetBackend(b)
			ok := make([]bool, n)
			BatchVerifyRecoverable(pubs, nil, ds, ss, hs, ok)
			for i := range ok {
				if ok[i] != want[i] {
					t.Fatalf("backend %v entry %d: batch=%v one-shot=%v (script %x)", b, i, ok[i], want[i], script)
				}
			}
		}
	})
}
