package repro

// Signatures and their wire formats. Signature remains the transparent
// (R, S) pair it always was — an alias of the internal type, so code
// that builds or inspects signatures field-wise keeps working — but it
// now carries two codecs (implemented in internal/sign with
// malformed-input hardening):
//
//   - ASN.1 DER, the crypto.Signer / certificate-world format:
//     SignASN1, VerifyASN1, ParseSignatureDER, Signature.MarshalASN1;
//   - the fixed-width 60-byte raw encoding r || s for the paper's WSN
//     radio link: Signature.Bytes, ParseSignature, and the
//     encoding.BinaryMarshaler/Unmarshaler pair.

import (
	"io"

	"repro/internal/sign"
)

// Signature is an ECDSA-style signature: an (r, s) pair with
// 1 <= r, s < n. It implements encoding.BinaryMarshaler and
// encoding.BinaryUnmarshaler with the fixed-width raw encoding.
type Signature = sign.Signature

// SignatureSize is the length of the fixed-width raw signature
// encoding r || s produced by Signature.Bytes.
const SignatureSize = sign.RawSize

// ParseSignature parses the fixed-width 60-byte raw encoding produced
// by Signature.Bytes, rejecting wrong lengths and out-of-range
// components.
func ParseSignature(b []byte) (*Signature, error) { return sign.ParseRaw(b) }

// ParseSignatureDER parses a DER-encoded signature
// (SEQUENCE { INTEGER r, INTEGER s }). Only the canonical encoding is
// accepted: non-minimal integers, trailing data and out-of-range
// components are rejected, and a parsed signature re-serializes
// byte-exactly through Signature.MarshalASN1.
func ParseSignatureDER(b []byte) (*Signature, error) { return sign.ParseDER(b) }

// Sign produces an ECDSA-style signature over the message digest.
//
// New code that wants wire bytes should use SignASN1 (DER) or
// sig.Bytes (raw) — or the crypto.Signer interface on *PrivateKey.
func Sign(priv *PrivateKey, digest []byte, rand io.Reader) (*Signature, error) {
	return sign.Sign(priv.key, digest, rand)
}

// SignDeterministic signs with an RFC 6979-style deterministic nonce,
// removing the signing-time RNG dependency (valuable on RNG-poor
// sensor nodes). Equivalent to priv.Sign with a nil rand, minus the
// DER encoding.
func SignDeterministic(priv *PrivateKey, digest []byte) (*Signature, error) {
	return sign.SignDeterministic(priv.key, digest)
}

// SignASN1 signs the (pre-hashed) digest with the private key and
// returns the ASN.1 DER encoding of the signature, drawing the nonce
// from rand (nil rand selects the deterministic nonce, as in
// PrivateKey.Sign).
func SignASN1(rand io.Reader, priv *PrivateKey, digest []byte) ([]byte, error) {
	return priv.Sign(rand, digest, nil)
}

// VerifyASN1 reports whether der is a valid DER-encoded signature over
// digest under pub. Non-canonical encodings verify as false.
func VerifyASN1(pub *PublicKey, digest, der []byte) bool {
	sig, err := sign.ParseDER(der)
	if err != nil {
		return false
	}
	return pub.Verify(digest, sig)
}

// Verify reports whether sig is valid over digest under the public
// key — the opaque-key twin of the point-level Verify. The
// verification equation runs as a single interleaved double-scalar
// ladder, over the key's cached wide-window table when
// PublicKey.Precompute has built one.
func (pub *PublicKey) Verify(digest []byte, sig *Signature) bool {
	return sign.VerifyPrecomputed(pub.point, pub.verifyTable(), digest, sig)
}

// VerifyASN1 is VerifyASN1 as a method.
func (pub *PublicKey) VerifyASN1(digest, der []byte) bool {
	return VerifyASN1(pub, digest, der)
}

// HintNone is the "no recovery hint" sentinel: every hint value >=
// HintNone routes verification through the plain per-request path.
// Usable hints (0..7) encode the nonce point R = k·G that the
// signature's r component reduces away — offset<<1 | ỹ, with
// x(R) = r + offset·n and ỹ the compressed-point recovery bit — and
// let the batch verifier check many signatures in one randomised
// linear-combination pass (see BatchVerifyRecoverable). Hints are an
// accelerator, never an input to the verdict: a wrong or missing hint
// only costs the fast path.
const HintNone = sign.HintNone

// SignRecoverable signs the (pre-hashed) digest and also returns the
// recovery hint for the signature's nonce point, for submission to
// hint-aware batch verifiers. The signature bytes are identical to the
// plain signer's for the same key, digest and random source; a nil
// rand selects the RFC 6979-style deterministic nonce, as in
// PrivateKey.Sign.
func SignRecoverable(rand io.Reader, priv *PrivateKey, digest []byte) (*Signature, byte, error) {
	if rand == nil {
		return sign.SignRecoverableDeterministic(priv.key, digest)
	}
	return sign.SignRecoverable(priv.key, digest, rand)
}

// RecoverHint computes the recovery hint for an existing valid
// signature by re-running the verification equation — one joint
// ladder, the price of a verification — for holders of signatures
// from hint-less signers. Invalid signatures return an error.
func RecoverHint(pub *PublicKey, digest []byte, sig *Signature) (byte, error) {
	return sign.RecoverHint(pub.point, digest, sig)
}
