package sign

import (
	"errors"
	"io"
	"math/big"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/gf233"
)

// Recovery hints. A signature's r component is x(R) reduced mod n —
// the reduction and the dropped y coordinate destroy the nonce point
// R = k·G that the verification equation actually reconstructs. The
// batch verifier's randomised linear-combination check needs R itself
// (it checks Σρᵢ(u1ᵢG + u2ᵢQᵢ − Rᵢ) = ∞ rather than comparing x
// coordinates per request), so the signer can ship a one-byte hint
// alongside the signature:
//
//	hint = offset<<1 | ỹ
//
// where x(R) = r + offset·n (offset ∈ 0..3: the cofactor-4 curve has
// n ≈ 2^231 against field size 2^233) and ỹ is the standard compressed
// recovery bit, the low bit of y/x — the same convention as
// ec.Affine.EncodeCompressed. Values ≥ HintNone mean "no hint": the
// verifier then takes the plain per-request path. Hints are an
// accelerator only, never an input to the verdict — a wrong or
// malicious hint makes recovery fail or recover the wrong point, the
// aggregate check then fails, and the fallback recomputes the
// joint-ladder answer, so VerifyRecovered ≡ Verify for every input.
const HintNone byte = 8

// ErrNoHint is returned by RecoverNoncePoint for hint values that do
// not identify a point (hint ≥ HintNone, or an x candidate off the
// curve / out of field range).
var ErrNoHint = errors.New("sign: signature carries no usable recovery hint")

// SignRecoverable is Sign also returning the recovery hint for the
// nonce point. The signature bytes are identical to Sign's for the
// same key, digest and random source.
func SignRecoverable(priv *core.PrivateKey, digest []byte, rand io.Reader) (*Signature, byte, error) {
	sig, rp, err := signCore(priv, digest, rand)
	if err != nil {
		return nil, HintNone, err
	}
	return sig, hintFor(rp, sig.R), nil
}

// SignRecoverableDeterministic is SignDeterministic with a recovery
// hint, mirroring the Sign / SignDeterministic pair.
func SignRecoverableDeterministic(priv *core.PrivateKey, digest []byte) (*Signature, byte, error) {
	if priv == nil || priv.D == nil || priv.D.Sign() == 0 {
		return nil, HintNone, ErrInvalidKey
	}
	return SignRecoverable(priv, digest, newDRBG(priv.D, digest))
}

// hintFor encodes the hint for nonce point rp with r = x(rp) mod n.
// rp.X is never zero here: x = 0 reduces to r = 0, which the signing
// loop and CheckVerifyInputs both reject.
func hintFor(rp ec.Affine, r *big.Int) byte {
	xb := rp.X.Bytes()
	off := new(big.Int).SetBytes(xb[:])
	off.Sub(off, r).Div(off, ec.Order)
	lam, _ := gf233.Div(rp.Y, rp.X)
	return byte(off.Uint64())<<1 | byte(lam.Bit(0))
}

// RecoverHint computes the hint for an existing valid signature by
// re-running the verification equation — for callers (tests, fixture
// generators, proxies) holding signatures from hint-less signers. An
// invalid signature returns ErrInvalidSignature.
func RecoverHint(pub ec.Affine, digest []byte, sig *Signature) (byte, error) {
	if !CheckVerifyInputs(pub, sig) {
		return HintNone, ErrInvalidSignature
	}
	u1, u2 := new(big.Int), new(big.Int)
	verifyScalars(u1, u2, HashToInt(digest), sig)
	rp := core.JointScalarMult(u1, u2, pub)
	if rp.Inf {
		return HintNone, ErrInvalidSignature
	}
	xb := rp.X.Bytes()
	v := new(big.Int).SetBytes(xb[:])
	core.ReduceModOrder(v)
	if v.Cmp(sig.R) != 0 {
		return HintNone, ErrInvalidSignature
	}
	return hintFor(rp, sig.R), nil
}

// RecoverNoncePoint reconstructs the nonce point R from a signature's
// r and its recovery hint, via compressed-point decompression of the
// candidate abscissa x = r + offset·n. The result is on the curve but
// NOT guaranteed to lie in the prime-order subgroup — consumers that
// multiply it must use exact (non-reduced) scalar arithmetic. Callers
// must have range-checked sig (CheckVerifyInputs).
func RecoverNoncePoint(sig *Signature, hint byte) (ec.Affine, error) {
	if hint >= HintNone {
		return ec.Infinity, ErrNoHint
	}
	x := new(big.Int).SetInt64(int64(hint >> 1))
	x.Mul(x, ec.Order).Add(x, sig.R)
	if x.BitLen() > gf233.M {
		return ec.Infinity, ErrNoHint
	}
	var xb [gf233.ByteLen]byte
	x.FillBytes(xb[:])
	xe, ok := gf233.FromBytes(xb)
	if !ok {
		return ec.Infinity, ErrNoHint
	}
	p, err := ec.Decompress(xe, uint32(hint&1))
	if err != nil {
		return ec.Infinity, ErrNoHint
	}
	return p, nil
}

// VerifyRecovered is the scalar reference for hint-assisted
// verification, semantically identical to Verify for every (sig, hint)
// pair: recover R from the hint and test the verification equation as
// a full-point identity u1·G + u2·Q = R (which implies x(R') mod n = r
// since x(R) ≡ r by construction); on any recovery failure or mismatch
// fall back to the joint-ladder verifier, so a bad hint can never flip
// the verdict. The engine's linear-combination kernel is held to this
// function by the differential fuzzer.
func VerifyRecovered(pub ec.Affine, fb *core.FixedBase, digest []byte, sig *Signature, hint byte) bool {
	if !CheckVerifyInputs(pub, sig) {
		return false
	}
	if r, err := RecoverNoncePoint(sig, hint); err == nil {
		e := HashToInt(digest)
		w := new(big.Int).ModInverse(sig.S, ec.Order)
		u1 := new(big.Int).Mul(e, w)
		u1.Mod(u1, ec.Order)
		u2 := new(big.Int).Mul(sig.R, w)
		u2.Mod(u2, ec.Order)
		var rp ec.Affine
		if fb != nil {
			rp = core.JointScalarMultFixed(u1, u2, fb)
		} else {
			rp = core.JointScalarMult(u1, u2, pub)
		}
		if rp == r {
			return true
		}
	}
	return verifyJoint(pub, fb, digest, sig)
}
