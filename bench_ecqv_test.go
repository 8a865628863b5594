package repro

// ECQV lifecycle benchmarks: issuance, one-shot extraction, and
// batched extraction through the engine kernel. ns/op is per
// certificate in every sub-benchmark; scripts/bench_ecqv.sh distils
// them into BENCH_ecqv.json.

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/core"
)

func benchECQVInputs(b *testing.B, n int) (*CA, *PublicKey, []*Cert) {
	b.Helper()
	rnd := rand.New(rand.NewSource(91))
	caKey, err := GenerateKey(rnd)
	if err != nil {
		b.Fatal(err)
	}
	ca := NewCA(caKey)
	certs := make([]*Cert, n)
	for i := range certs {
		req, err := RequestCert(rnd, []byte("bench-node-"+strconv.Itoa(i)))
		if err != nil {
			b.Fatal(err)
		}
		cert, _, err := ca.Issue(req.Bytes(), req.Identity(), rnd)
		if err != nil {
			b.Fatal(err)
		}
		certs[i] = cert
	}
	return ca, ca.PublicKey(), certs
}

// BenchmarkECQV contrasts the certificate operations:
//
//   - issue: CA-side issuance with a deterministic nonce (one
//     fixed-base scalar multiplication plus scalar arithmetic);
//   - extract: the one-shot verifier path — a scalar multiplication,
//     an affine addition, and the halving-trace subgroup validation of
//     the result;
//   - extractBatched32/128: the same extraction through the engine
//     kernel at batch 32 and 128, where the ladder tables and the
//     final projective-to-affine conversion share batch-wide
//     inversions; the subgroup checks are the same halving-trace test
//     as the one-shot path.
func BenchmarkECQV(b *testing.B) {
	ca, caPub, certs := benchECQVInputs(b, 128)
	core.Warm()
	req, err := RequestCert(rand.New(rand.NewSource(92)), []byte("bench-issue"))
	if err != nil {
		b.Fatal(err)
	}
	reqBytes, reqID := req.Bytes(), req.Identity()
	b.Run("issue", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ca.Issue(reqBytes, reqID, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("extract", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ExtractPublicKey(certs[i%len(certs)], caPub); err != nil {
				b.Fatal(err)
			}
		}
	})
	out := make([]CertExtractResult, len(certs))
	for _, n := range []int{32, 128} {
		b.Run("extractBatched"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += n {
				BatchExtractPublicKeys(certs[:n], caPub, out[:n])
			}
			b.StopTimer()
			for i := 0; i < n; i++ {
				if out[i].Err != nil {
					b.Fatalf("batch rejected valid certificate %d: %v", i, out[i].Err)
				}
			}
		})
	}
}
