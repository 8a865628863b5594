// Package repro is a full reproduction of "Ultra Low-Power
// implementation of ECC on the ARM Cortex-M0+" (de Clercq, Uhsadel,
// Van Herrewege, Verbauwhede — DAC 2014) as a Go library.
//
// This root package is the stable public surface, shaped after Go's
// own crypto/ecdh and crypto/ecdsa packages:
//
//   - opaque key types [PublicKey] and [PrivateKey] (keys.go) with
//     byte-slice constructors and encoders — [NewPrivateKey],
//     [NewPublicKey], Bytes, BytesCompressed, Equal — so keys plug
//     into key stores and config files as bytes, never as raw
//     big.Ints;
//   - *PrivateKey implements crypto.Signer, and signature.go carries
//     the two wire codecs: ASN.1 DER ([SignASN1], [VerifyASN1],
//     [ParseSignatureDER]) for certificate-shaped stacks, and the
//     fixed-width 60-byte raw encoding (Signature.Bytes,
//     [ParseSignature]) for the paper's WSN radio link. Signature
//     also implements encoding.BinaryMarshaler/Unmarshaler;
//   - ECDH as a key method (PrivateKey.ECDH, ecdh.go);
//   - the point-level primitives (point.go): the paper's two
//     point-multiplication paths (random point k·P with width-4
//     τ-adic NAF, fixed point k·G with a precomputed table), the
//     constant-time Montgomery-ladder variant from the paper's
//     future-work section, and X9.62 point codecs;
//   - two one-shot signing functions that return a raw *Signature,
//     [Sign] and [SignDeterministic]. The other pre-redesign loose
//     functions are removed; the README's migration table gives the
//     key method that replaces each.
//
// The reproduction substrates live under internal/: the F_2^233 field
// with the paper's "López-Dahab with fixed registers" multiplication
// plus two host backends — a portable 64-bit windowed-LD path and a
// PCLMULQDQ carry-less-multiply path with Itoh–Tsujii inversion,
// selected automatically by CPU probe or pinned via GF233_BACKEND
// (internal/gf233), the curve group (internal/ec), τ-adic recoding
// (internal/koblitz), an ARMv6-M instruction-set simulator with the
// Cortex-M0+ cycle model (internal/armv6m), a Thumb assembler
// (internal/thumb), the generated assembly field routines
// (internal/codegen), the Table 3 energy model and synthetic
// measurement rig (internal/energy), and the evaluation harness
// reproducing every table and figure (internal/opcount,
// internal/profile, internal/litdata; driven by cmd/eccbench).
//
// For server-side throughput the package also exposes a concurrent
// batch engine (batch.go, internal/engine): [NewBatchEngine] (an
// options-based constructor — WithWorkers, WithMaxBatch,
// WithWarmTables) collects requests from many goroutines and
// amortises the dominant field inversion — and, for signing and
// verification, the mod-n inversions — across whole batches with
// Montgomery's trick, on allocation-free scratch state. Signature
// verification runs as a single interleaved τ-adic double-scalar
// ladder; [PublicKey.Precompute] caches a per-key wide-window table
// that roughly doubles one-shot verification throughput for keys that
// verify many signatures. See the README's "Concurrency and batching"
// and "Verification performance" sections for the contracts and
// numbers, and cmd/eccload for the load harness.
//
// Host field arithmetic runs on the 4x64-bit layout, with
// 64-bit-native LD point arithmetic underneath the hot loops, in one of
// two backends selected at package level in internal/gf233: portable
// pure Go, or PCLMULQDQ where the CPU has it. The paper-faithful
// 8x32-bit Cortex-M0+ routines are not a host backend; opcount and
// codegen instrument and compile them for the simulator by name, and
// the tests use them as oracles. The backends are bit-identical —
// differential fuzz targets in internal/gf233 enforce it — so this
// package's results never depend on the selection, only its speed
// does. Fixed-point
// multiplication (ScalarBaseMult, GenerateKey) additionally uses a
// Lim-Lee comb table for the generator; the paper's wTNAF w=6 method
// remains available as internal/core.ScalarBaseMultTNAF.
package repro
