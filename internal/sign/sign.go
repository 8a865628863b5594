// Package sign implements ECDSA-style signatures over sect233k1, the
// authentication counterpart to the key exchange in a WSN hybrid
// cryptosystem (what Micro ECC, the Table 4 comparison library,
// provides as ECDSA).
//
// Signing uses the paper's fixed-point multiplication (k·G);
// verification uses one fixed-point and one random-point
// multiplication.
package sign

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"io"
	"math/big"
	"sync"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/koblitz"
)

// Signature is an (r, s) pair with 1 <= r, s < n.
type Signature struct {
	R, S *big.Int
}

// Errors returned by Sign/Verify.
var (
	ErrInvalidKey       = errors.New("sign: invalid key")
	ErrSigningFailed    = errors.New("sign: could not produce a signature")
	ErrInvalidSignature = errors.New("sign: invalid signature encoding")
)

// HashToInt converts a message digest to an integer modulo n, taking
// the leftmost Order.BitLen() bits as ECDSA prescribes.
func HashToInt(digest []byte) *big.Int {
	return HashToIntInto(new(big.Int), digest)
}

// HashToIntInto is HashToInt storing the result in e (returned for
// chaining): the scratch-threading variant the batch engine uses so
// per-signature digest conversion reuses steady-state storage.
func HashToIntInto(e *big.Int, digest []byte) *big.Int {
	e.SetBytes(digest)
	if excess := 8*len(digest) - ec.Order.BitLen(); excess > 0 {
		e.Rsh(e, uint(excess))
	}
	// After truncation e < 2^BitLen(n), and n has its top bit set, so
	// e < 2n: one conditional subtraction is a full reduction (and,
	// unlike an aliased Mod, allocates nothing).
	if e.Cmp(ec.Order) >= 0 {
		e.Sub(e, ec.Order)
	}
	return e
}

// Sign produces a signature over the message digest with the private
// key, drawing the nonce from rand.
func Sign(priv *core.PrivateKey, digest []byte, rand io.Reader) (*Signature, error) {
	sig, _, err := signCore(priv, digest, rand)
	return sig, err
}

// signCore is the shared signing loop: it additionally returns the
// nonce point R = k·G so SignRecoverable can derive the recovery hint
// without disturbing the signature bytes (Sign and SignRecoverable
// draw identical nonces from the same rand, so their (r, s) agree).
//
// The nonce comes from core's one rejection sampler, and s = k⁻¹(e +
// r·d) assembles one way for every key: the constant-time safegcd
// inverse of k and the word assembly core.SignSCT. Only the nonce point
// depends on the key's ConstTime flag: the constant-time comb
// (core.GenerateKeyCT) for a hardened key, the fast comb otherwise.
// Both draw the same bytes from rand, so hardened signatures are
// byte-identical to fast ones for the same stream.
func signCore(priv *core.PrivateKey, digest []byte, rand io.Reader) (*Signature, ec.Affine, error) {
	if priv == nil || priv.D == nil || priv.D.Sign() == 0 {
		return nil, ec.Infinity, ErrInvalidKey
	}
	var e, d core.Residue
	e.SetBig(HashToInt(digest))
	d.SetBig(priv.D)
	for tries := 0; tries < 100; tries++ {
		var (
			nonce *core.PrivateKey
			err   error
		)
		if priv.ConstTime {
			nonce, err = core.GenerateKeyCT(rand)
		} else {
			nonce, err = core.GenerateKey(rand)
		}
		if err != nil {
			return nil, ec.Infinity, err
		}
		var k, rw core.Residue
		k.SetBig(nonce.D)
		koblitz.WipeInt(nonce.D)
		// R = k·G; r = x(R) as an integer mod n.
		rp := nonce.Public
		xb := rp.X.Bytes()
		r := new(big.Int).SetBytes(xb[:])
		core.ReduceModOrder(r)
		if r.Sign() == 0 {
			continue
		}
		// s = k⁻¹(e + r·d) mod n.
		s := core.SignSCT(k.Inv(&k), &e, rw.SetBig(r), &d)
		if s == (core.Residue{}) {
			continue
		}
		return &Signature{R: r, S: s.Big(new(big.Int))}, rp, nil
	}
	return nil, ec.Infinity, ErrSigningFailed
}

// DeterministicNonceReader returns the RFC 6979-style HMAC-DRBG
// stream SignDeterministic draws its nonce bytes from, seeded by the
// key and digest. Other signing front ends (the batch engine) use it
// to map a nil random source to deterministic nonces: fed through the
// same rejection sampler, it reproduces SignDeterministic's nonce —
// and therefore its signature — exactly.
func DeterministicNonceReader(priv *core.PrivateKey, digest []byte) io.Reader {
	return newDRBG(priv.D, digest)
}

// SignDeterministic produces a signature with an RFC 6979-style
// deterministic nonce (HMAC-DRBG over the key and digest) instead of an
// external random source. On a sensor node this removes the dependency
// on a high-quality RNG at signing time — a real concern on the
// MCU-class targets the paper addresses — and makes signatures
// reproducible for testing.
func SignDeterministic(priv *core.PrivateKey, digest []byte) (*Signature, error) {
	if priv == nil || priv.D == nil || priv.D.Sign() == 0 {
		return nil, ErrInvalidKey
	}
	drbg := newDRBG(priv.D, digest)
	return Sign(priv, digest, drbg)
}

// drbg is a minimal HMAC-SHA256 deterministic bit generator in the
// spirit of RFC 6979 (simplified: it feeds core.GenerateKey's rejection
// sampler rather than implementing the exact bits2int pipeline).
type drbg struct {
	k, v []byte
}

func newDRBG(d *big.Int, digest []byte) *drbg {
	g := &drbg{
		k: make([]byte, sha256.Size),
		v: bytes.Repeat([]byte{0x01}, sha256.Size),
	}
	seed := append(d.FillBytes(make([]byte, 30)), digest...)
	g.update(seed)
	return g
}

func (g *drbg) hmac(key []byte, parts ...[]byte) []byte {
	h := hmac.New(sha256.New, key)
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum(nil)
}

func (g *drbg) update(seed []byte) {
	g.k = g.hmac(g.k, g.v, []byte{0x00}, seed)
	g.v = g.hmac(g.k, g.v)
	if len(seed) > 0 {
		g.k = g.hmac(g.k, g.v, []byte{0x01}, seed)
		g.v = g.hmac(g.k, g.v)
	}
}

// Read implements io.Reader over the DRBG output stream.
func (g *drbg) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		g.v = g.hmac(g.k, g.v)
		n += copy(p[n:], g.v)
	}
	return len(p), nil
}

// verifyScratch bundles the reusable per-call big.Int state of the
// verifier. All inputs to a verification are public, so pooled
// scratches need no scrubbing — pooling exists purely so the hot path
// allocates nothing.
type verifyScratch struct {
	e, u1, u2, v big.Int
}

var verifyPool = sync.Pool{New: func() any { return new(verifyScratch) }}

// CheckVerifyInputs applies the signature range checks and public-key
// curve check shared by every verification front end — the one-shot
// verifiers here and the batch engine's kernel call the same
// predicate, so input hardening can never drift between them. False
// means the verification already failed.
func CheckVerifyInputs(pub ec.Affine, sig *Signature) bool {
	if sig == nil || sig.R == nil || sig.S == nil {
		return false
	}
	if sig.R.Sign() <= 0 || sig.R.Cmp(ec.Order) >= 0 ||
		sig.S.Sign() <= 0 || sig.S.Cmp(ec.Order) >= 0 {
		return false
	}
	return !pub.Inf && pub.OnCurve()
}

// Verify reports whether sig is a valid signature over digest for the
// public key.
//
// The verification equation R' = u1·G + u2·Q runs as a single
// Shamir/Straus-interleaved τ-adic ladder (core.JointScalarMult): one
// shared Frobenius loop, one final field inversion, and u1, u2 on
// mod-n words around the safegcd inverse of s — against the seed's two
// disjoint multiplications, three extra inversions and per-call
// big.Int.ModInverse (kept below as VerifySeparate). The call is
// allocation-free in steady state.
func Verify(pub ec.Affine, digest []byte, sig *Signature) bool {
	return verifyJoint(pub, nil, digest, sig)
}

// VerifyPrecomputed is Verify over a caller-held precomputed table for
// the public key (core.NewFixedBase(Q, w)): the per-call Q-table build
// disappears and wide windows cut the Q-side additions by a third. The
// table is read-only during verification, so concurrent calls sharing
// one table are safe. fb's point must be the public key Q; a nil fb
// falls back to the per-call path.
func VerifyPrecomputed(pub ec.Affine, fb *core.FixedBase, digest []byte, sig *Signature) bool {
	return verifyJoint(pub, fb, digest, sig)
}

func verifyJoint(pub ec.Affine, fb *core.FixedBase, digest []byte, sig *Signature) bool {
	if !CheckVerifyInputs(pub, sig) {
		return false
	}
	vs := verifyPool.Get().(*verifyScratch)
	defer verifyPool.Put(vs)
	HashToIntInto(&vs.e, digest)
	verifyScalars(&vs.u1, &vs.u2, &vs.e, sig)
	// R' = u1·G + u2·Q in one interleaved ladder.
	var rp ec.Affine
	if fb != nil {
		rp = core.JointScalarMultFixed(&vs.u1, &vs.u2, fb)
	} else {
		rp = core.JointScalarMult(&vs.u1, &vs.u2, pub)
	}
	if rp.Inf {
		return false
	}
	xb := rp.X.Bytes()
	vs.v.SetBytes(xb[:])
	core.ReduceModOrder(&vs.v)
	return vs.v.Cmp(sig.R) == 0
}

// verifyScalars sets the verification equation's scalars u1 = e·s⁻¹
// and u2 = r·s⁻¹ mod n, computed on words.
func verifyScalars(u1, u2, e *big.Int, sig *Signature) {
	var w, x core.Residue
	w.SetBig(sig.S).Inv(&w)
	x.SetBig(e).Mul(&x, &w).Big(u1)
	x.SetBig(sig.R).Mul(&x, &w).Big(u2)
}

// VerifySeparate is the seed verifier, byte-for-byte: two disjoint
// scalar multiplications joined by an affine addition, with a per-call
// big.Int.ModInverse. It is kept as the reference the joint path is
// differentially tested against (FuzzJointScalarMultVsSeparate, the
// negative-path tests) and as the baseline BenchmarkVerify/separate
// measures.
func VerifySeparate(pub ec.Affine, digest []byte, sig *Signature) bool {
	if !CheckVerifyInputs(pub, sig) {
		return false
	}
	e := HashToInt(digest)
	w := new(big.Int).ModInverse(sig.S, ec.Order)
	u1 := new(big.Int).Mul(e, w)
	u1.Mod(u1, ec.Order)
	u2 := new(big.Int).Mul(sig.R, w)
	u2.Mod(u2, ec.Order)
	// R' = u1·G + u2·Q.
	rp := core.ScalarBaseMult(u1).Add(core.ScalarMult(u2, pub))
	if rp.Inf {
		return false
	}
	xb := rp.X.Bytes()
	v := new(big.Int).SetBytes(xb[:])
	v.Mod(v, ec.Order)
	return v.Cmp(sig.R) == 0
}
