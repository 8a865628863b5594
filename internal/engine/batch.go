package engine

import (
	crand "crypto/rand"
	"errors"
	"io"
	"math/big"
	mrand "math/rand/v2"
	"sync"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/ecdh"
	"repro/internal/gf233"
	"repro/internal/koblitz"
	"repro/internal/sign"
)

// Signature re-exports sign.Signature: the engine produces the same
// (r, s) pairs the one-shot signer does.
type Signature = sign.Signature

// SecretSize is the byte length of an ECDH shared secret (the shared
// abscissa, a field element).
const SecretSize = gf233.ByteLen

// opKind tags what a request asks for.
type opKind uint8

const (
	opScalarMult opKind = iota
	opECDH
	opSign
	opVerify
	opExtract
)

// Errors returned by the implicit-certificate extraction op. Both mean
// the certificate input was rejected — callers map them onto their own
// invalid-certificate errors.
var (
	// ErrExtractPoint reports a certificate point that failed the
	// kernel's own validation (infinity, off curve, or outside the
	// prime-order subgroup). Parsed certificates were already validated
	// at the boundary; the kernel re-checks with the cheap halving-trace
	// test so a forged point can never reach the ladders even through a
	// caller that skipped parsing.
	ErrExtractPoint = errors.New("engine: extract: invalid certificate point")
	// ErrExtractDegenerate reports a degenerate extraction: a zero
	// certificate hash, or a result that is not a usable public key.
	ErrExtractDegenerate = errors.New("engine: extract: degenerate result")
)

// request carries one operation through the batch pipeline. All
// intermediates are request-owned and reused across pool cycles, which
// is what keeps the steady state allocation-free.
type request struct {
	op opKind
	// inputs (caller-owned and left unchanged until the request
	// completes, so the kernel may read them without copies)
	k      *big.Int
	point  ec.Affine
	priv   *core.PrivateKey
	digest []byte
	rand   io.Reader
	sig    *sign.Signature // verify: the signature under test
	fb     *core.FixedBase // verify: optional per-key table
	hint   byte            // verify: nonce-point recovery hint (≥ sign.HintNone: none)
	ca     ec.Affine64     // extract: the CA public key Q_CA (validated by the caller)
	ct     bool            // sign/ECDH: route through the constant-time evaluators
	// intermediates
	ld     ec.LD64
	nonce  big.Int
	e      big.Int
	u1, u2 core.Residue // verify: e·s⁻¹ and r·s⁻¹ mod n
	rho    uint64       // verify: random linear-combination weight
	rpt    ec.Affine64  // verify: recovered nonce point, pre-negated (−R)
	lcDone bool         // verify: settled by the linear-combination pass
	// results
	res    ec.Affine
	secret [SecretSize]byte
	r, s   big.Int
	signed Signature // sign: {&r, &s}, the view a callback receives
	ok     bool      // verify outcome
	err    error
	// completion (Engine requests only): the worker calls done once the
	// request's batch has finished. It is one of the two completions
	// bound when the pool made the request, so submitting allocates
	// nothing: wake for a synchronous caller parked on woken, finish
	// for a callback-form request, which passes the outcome to onSign,
	// onSecret or onVerify and then pools the request.
	done, wake, finish func()
	woken              chan struct{}
	onSign             func(*Signature, error)
	onSecret           func([]byte, error)
	onVerify           func(bool, error)
}

// newRequest starts with the no-hint sentinel: the zero byte is a
// VALID hint (offset 0, even parity), so both construction and release
// must reset it explicitly or a pooled request could smuggle a stale
// hint into a plain Verify.
func newRequest() *request {
	r := &request{hint: sign.HintNone}
	r.signed = Signature{R: &r.r, S: &r.s}
	return r
}

// callback hands a finished callback-form request's outcome to its
// caller. What it passes aliases r, which is scrubbed and pooled as
// soon as the callback returns.
func (r *request) callback() {
	switch r.op {
	case opECDH:
		if r.err != nil {
			r.onSecret(nil, r.err)
		} else {
			r.onSecret(r.secret[:], nil)
		}
	case opSign:
		if r.err != nil {
			r.onSign(nil, r.err)
		} else {
			r.onSign(&r.signed, nil)
		}
	case opVerify:
		r.onVerify(r.ok, r.err)
	}
}

// release readies a finished request for pooling: it drops the
// caller-owned references and scrubs the secret-bearing state — the
// ECDSA nonce (it leaks the private key when combined with the
// published signature; its inverse never leaves the scratch) and the
// raw ECDH secret.
// The public outputs (r, s, res) and the digest value stay; pooled
// objects idle indefinitely, so this runs on every return path.
func (r *request) release() {
	r.k = nil
	r.priv = nil
	r.digest = nil
	r.rand = nil
	r.sig = nil
	r.fb = nil
	r.hint = sign.HintNone
	r.ct = false
	r.onSign, r.onSecret, r.onVerify = nil, nil, nil
	koblitz.WipeInt(&r.nonce)
	r.secret = [SecretSize]byte{}
}

// batchScratch is one worker's reusable state: the core scratch for
// point arithmetic, the operand/scratch slices for the batched field
// and mod-n inversions, and the big.Int stores the ladders read. Not
// safe for concurrent use.
type batchScratch struct {
	cs *core.Scratch
	zs []gf233.Elem64
	zi []gf233.Elem64
	// the batched mod-n inversion (core.BatchInv): the values (nonces
	// or s components) and their prefix products, which become the
	// inverses.
	nv, pfx []core.Residue
	buf     [32]byte // nonce sampling buffer
	// big.Int stores of word scalars for the ladders: u1, u2 for a
	// joint ladder (then x(R') mod n), term for a multi-scalar term.
	u1, u2, term big.Int
	signQ        []*request
	verifyQ      []*request
	reqs         []*request // slice-API staging
	// extraction staging: the queued requests and the contiguous
	// (scalar, point, result) views the batched multi-point ladder
	// consumes.
	exQ   []*request
	expts []ec.Affine
	exks  []*big.Int
	exlds []ec.LD64
	// linear-combination verification state: the multi-scalar
	// evaluator, the hinted-request queue, the per-distinct-key
	// coalescing groups, the batched-decompression staging, and the
	// weight stream (ChaCha8, lazily seeded from the system RNG by
	// weightSource — the weights must be unpredictable to submitters,
	// and drawing them from a per-scratch generator keeps the hot path
	// allocation-free).
	ms     core.MultiScalar
	lcQ    []*request
	groups []lcGroup
	ng     int
	rhoSrc *mrand.ChaCha8
	xv     []gf233.Elem64 // recovered abscissae
	x2     []gf233.Elem64 // their squares → batched inverses
	x2s    []gf233.Elem64 // inversion scratch
	xb     [gf233.ByteLen]byte
	rb     big.Int // abscissa candidate r + offset·n
}

// lcGroup coalesces the u2 scalars of one distinct public key: all
// requests of a batch against the same key collapse into a single
// point term (Σρᵢu2ᵢ)·Q. in caches the per-batch subgroup check that
// gates the key's LC eligibility.
type lcGroup struct {
	pub ec.Affine
	fb  *core.FixedBase
	c   core.Residue
	in  bool
}

func newBatchScratch() *batchScratch {
	return &batchScratch{cs: core.NewScratch()}
}

// weightSource returns the scratch's linear-combination weight stream,
// seeding it from the system RNG on first use. Seeding is lazy so that
// scratch construction — which runs inside sync.Pool.New and engine
// worker startup, on behalf of callers (BatchVerify, BatchSign) that
// may never touch the LC path — cannot fail on a machine without
// usable system randomness. If seeding fails the LC pass is skipped
// (nil return): without submitter-unpredictable weights the aggregate
// check is unsound, and the per-request ladders need no randomness.
func (s *batchScratch) weightSource() *mrand.ChaCha8 {
	if s.rhoSrc == nil {
		var seed [32]byte
		if _, err := crand.Read(seed[:]); err != nil {
			return nil
		}
		s.rhoSrc = mrand.NewChaCha8(seed)
	}
	return s.rhoSrc
}

// kernelPool recycles batchScratch values for the synchronous slice
// APIs; Engine workers keep a private one instead.
var kernelPool = sync.Pool{New: func() any { return newBatchScratch() }}

// processBatch runs a mixed batch through the shared pipeline:
//
//	phase 1: per-request input checks and, for verification, one
//	         batched mod-n inversion for every s⁻¹ followed by the
//	         joint u1·G + u2·Q ladders;
//	phase 2: per-request point work, left projective (no inversions);
//	phase 3: one batched field inversion for every LD→affine;
//	phase 4: per-request finalisation from the shared inverses;
//	phase 5: one batched mod-n inversion for all signing nonces;
//	phase 6: signature assembly (retrying the crypto-impossible
//	         r = 0 / s = 0 corners sequentially).
func processBatch(s *batchScratch, batch []*request) {
	signQ := s.signQ[:0]
	verifyQ := s.verifyQ[:0]
	exQ := s.exQ[:0]
	for _, r := range batch {
		r.err = nil
		switch r.op {
		case opScalarMult:
			r.ld = s.cs.ScalarMultLD64(r.k, r.point)
		case opECDH:
			if err := ecdh.ValidateTau(r.point); err != nil {
				r.err = err
				r.ld = ec.LD64Infinity
				continue
			}
			if r.ct || r.priv.ConstTime {
				// The ladder's x-line (X:Z) rides in r.ld: finalisation
				// reads only X·Z⁻¹, which is x on either path.
				x, z := s.cs.LadderX(r.priv.D, r.point)
				r.ld = ec.LD64{X: x, Z: z}
			} else {
				r.ld = s.cs.ScalarMultLD64(r.priv.D, r.point)
			}
		case opSign:
			if err := s.prepareSign(r); err != nil {
				r.err = err
				r.ld = ec.LD64Infinity
				continue
			}
			signQ = append(signQ, r)
		case opVerify:
			if !prepareVerify(r) {
				r.ld = ec.LD64Infinity
				continue
			}
			verifyQ = append(verifyQ, r)
		case opExtract:
			if !s.prepareExtract(r) {
				r.ld = ec.LD64Infinity
				continue
			}
			exQ = append(exQ, r)
		}
	}
	s.signQ = signQ
	s.verifyQ = verifyQ
	s.exQ = exQ
	if len(verifyQ) > 0 {
		s.verifyPoints(verifyQ)
	}
	if len(exQ) > 0 {
		s.extractPoints(exQ)
	}

	// One inversion for the whole batch. Z = 0 (infinity or errored
	// request) is skipped by InvBatch64.
	zs := core.Grow(&s.zs, len(batch))
	zi := core.Grow(&s.zi, len(batch))
	for i, r := range batch {
		zs[i] = r.ld.Z
	}
	gf233.InvBatch64(zs, zi)

	for i, r := range batch {
		if r.err != nil {
			continue
		}
		switch r.op {
		case opScalarMult:
			r.res = affineFrom(r.ld, zs[i])
		case opECDH:
			if r.ld.IsInfinity() {
				// Unreachable for a validated peer and d ∈ [1, n−1],
				// but the contract mirrors ecdh.SharedSecret.
				r.err = ecdh.ErrWeakSharedPoint
				continue
			}
			r.secret = gf233.Mul64(r.ld.X, zs[i]).Elem().Bytes()
		case opSign:
			// r = x(k·G) mod n from the shared inverse.
			x := gf233.Mul64(r.ld.X, zs[i]).Elem().Bytes()
			r.r.SetBytes(x[:])
			core.ReduceModOrder(&r.r)
		case opVerify:
			if r.lcDone {
				continue // verdict settled by the linear-combination pass
			}
			if r.ld.IsInfinity() {
				continue // ok stays false
			}
			// v = x(R') mod n from the shared inverse; accept iff it
			// matches the signature's r. The ladders are done, so s.u1
			// serves as the comparison scratch.
			x := gf233.Mul64(r.ld.X, zs[i]).Elem().Bytes()
			s.u1.SetBytes(x[:])
			core.ReduceModOrder(&s.u1)
			r.ok = s.u1.Cmp(r.sig.R) == 0
		case opExtract:
			if r.ld.IsInfinity() {
				// e·P_U = −Q_CA: not a usable public key. Unreachable for
				// honestly issued certificates (probability ~2⁻²³²).
				r.err = ErrExtractDegenerate
				continue
			}
			// Convert through the shared inverse and subgroup-validate the
			// output in the 64-bit representation before it leaves the
			// kernel: both inputs were subgroup points so the sum must be
			// too, but extracted keys feed the subgroup-assuming verify
			// kernels, so the property is checked, not argued. The
			// halving-trace test (ec.InPrimeSubgroup64, core.InSubgroup's
			// body) is exact and is held equal to the generic n·P = ∞
			// ladder by differential tests.
			zi := zs[i]
			x64 := gf233.Mul64(r.ld.X, zi)
			y64 := gf233.Mul64(r.ld.Y, gf233.Sqr64(zi))
			if !ec.InPrimeSubgroup64(x64, y64) {
				r.err = ErrExtractDegenerate
				continue
			}
			r.res = ec.Affine{X: x64.Elem(), Y: y64.Elem()}
		}
	}

	if len(signQ) > 0 {
		s.finishSigns(signQ)
	}
	s.scrub()
}

// scrub zeroes every secret-bearing transient the scratch retains,
// unconditionally after every batch (not just sign-carrying ones — a
// pooled or worker-held scratch idles indefinitely, and an earlier
// batch's residue must not survive into that idle window):
//
//   - the core scratch, which retains the LAST scalar's recoding
//     (digit strings are invertible back to the scalar) and the
//     fixed-width staging words of the constant-time evaluators —
//     every batch kind runs secret scalars through it (private keys
//     for ECDH, nonces for signing);
//   - the nonce sampling buffer, and the nonce words and their prefix
//     products (the inverses) of the batched mod-n inversion.
func (s *batchScratch) scrub() {
	s.cs.Wipe()
	s.buf = [32]byte{}
	clear(s.nv[:cap(s.nv)])
	clear(s.pfx[:cap(s.pfx)])
}

// affineFrom converts a projective result using its precomputed
// inverse Z coordinate.
func affineFrom(ld ec.LD64, zinv gf233.Elem64) ec.Affine {
	if ld.IsInfinity() {
		return ec.Infinity
	}
	return ec.Affine{
		X: gf233.Mul64(ld.X, zinv).Elem(),
		Y: gf233.Mul64(ld.Y, gf233.Sqr64(zinv)).Elem(),
	}
}

// prepareSign hashes the digest, samples a nonce into request-owned
// storage (core.SampleScalar, the sampler behind core.GenerateKey) and
// computes the nonce point on the generator comb, left projective.
func (s *batchScratch) prepareSign(r *request) error {
	if r.priv == nil || r.priv.D == nil || r.priv.D.Sign() == 0 {
		return sign.ErrInvalidKey
	}
	r.ct = r.ct || r.priv.ConstTime
	sign.HashToIntInto(&r.e, r.digest)
	if err := core.SampleScalar(&r.nonce, r.rand, &s.buf); err != nil {
		return err
	}
	// The hardened nonce point runs the constant-time comb; the nonce
	// sampler is shared (same bytes consumed from rand), so hardened
	// and fast signatures agree byte for byte per stream.
	if r.ct {
		r.ld = s.cs.ScalarBaseMultCTLD64(&r.nonce)
	} else {
		r.ld = s.cs.ScalarBaseMultLD64(&r.nonce)
	}
	return nil
}

// finishSigns computes every queued signature's s = k⁻¹(e + r·d),
// fast and hardened alike: ONE mod-n inversion covers all the nonces
// (core.BatchInv) and each signature runs the one word assembly
// (core.SignSCT). Both are constant-time, so hardened requests share
// the batch's inversion. Requests that hit the r = 0 / s = 0 rejection
// corners (probability ~2^-232 each) retry sequentially.
func (s *batchScratch) finishSigns(signQ []*request) {
	nv := core.Grow(&s.nv, len(signQ))
	for i, r := range signQ {
		nv[i].SetBig(&r.nonce)
	}
	kinv := core.Grow(&s.pfx, len(signQ))
	core.BatchInv(nv, kinv)
	for i, r := range signQ {
		if r.r.Sign() == 0 {
			s.retrySign(r)
			continue
		}
		var e, rw, d core.Residue
		sw := core.SignSCT(&kinv[i], e.SetBig(&r.e), rw.SetBig(&r.r), d.SetBig(r.priv.D))
		if sw == (core.Residue{}) {
			s.retrySign(r)
			continue
		}
		sw.Big(&r.s)
	}
}

// prepareVerify applies the verification input checks — the same
// predicate the one-shot verifier uses (sign.CheckVerifyInputs), so
// input hardening can never drift between the two paths — and hashes
// the digest. A false return means the request already failed
// verification — that is an ok=false outcome, not an error.
func prepareVerify(r *request) bool {
	r.ok = false
	r.lcDone = false
	if !sign.CheckVerifyInputs(r.point, r.sig) {
		return false
	}
	sign.HashToIntInto(&r.e, r.digest)
	return true
}

// prepareExtract validates one extraction request: the certificate
// point — attacker-controlled wire input — is re-checked inside the
// kernel (on curve, prime-order subgroup via core.InSubgroup's
// halving-trace test) so that a small-order or off-curve point can
// never reach a ladder even if a caller bypassed certificate parsing;
// then the certificate hash scalar e is formed from the caller-
// computed digest. The CA point in r.ca is operator-controlled and
// validated at key construction, so it is trusted here.
func (s *batchScratch) prepareExtract(r *request) bool {
	p := r.point
	if p.Inf || !p.OnCurve() || r.ca.Inf {
		r.err = ErrExtractPoint
		return false
	}
	if !core.InSubgroup(p) {
		r.err = ErrExtractPoint
		return false
	}
	sign.HashToIntInto(&r.e, r.digest)
	if r.e.Sign() == 0 {
		r.err = ErrExtractDegenerate
		return false
	}
	return true
}

// extractPoints computes e·P_U + Q_CA for every queued extraction,
// left projective: the ladders run through the batched multi-point
// scalar multiplication (core.ScalarMultBatchLD64), whose α-table
// normalisations share two inversions across the whole queue instead
// of two per request, and the CA additions are mixed-coordinate (no
// inversion). The LD→affine conversions then ride the batch-wide
// field inversion with every other op.
func (s *batchScratch) extractPoints(exQ []*request) {
	pts := core.Grow(&s.expts, len(exQ))
	ks := core.Grow(&s.exks, len(exQ))
	lds := core.Grow(&s.exlds, len(exQ))
	for i, r := range exQ {
		pts[i] = r.point
		ks[i] = &r.e
	}
	s.cs.ScalarMultBatchLD64(lds, ks, pts)
	for i, r := range exQ {
		r.ld = lds[i].AddMixed(r.ca)
	}
}

// lcMinBatch is the smallest hinted-request count worth the
// linear-combination pass: below it the shared Frobenius chain and
// bucket fold cost more than the per-request ladders they replace.
const lcMinBatch = 4

// verifyPoints computes every queued verification with ONE batched
// mod-n inversion for all the s values (core.BatchInv — the s
// components were range-checked into [1, n−1] by prepareVerify) and
// u1, u2 on words, then settles the verdicts in two tiers:
//
//	tier 1: requests carrying a recovery hint have their nonce points
//	        recovered by batched decompression and are checked all at
//	        once by the randomised linear-combination identity
//	        Σρᵢ(u1ᵢ·G + u2ᵢ·Qᵢ − Rᵢ) = ∞ over one shared multi-scalar
//	        pass (core.MultiScalar) — the generator terms of the whole
//	        batch collapse into one scalar, the per-key terms into one
//	        scalar per distinct key;
//	tier 2: everything else — unhinted requests, failed recoveries,
//	        off-subgroup keys, and the whole hinted set whenever the
//	        aggregate check fails (so invalid signatures are identified
//	        individually) — runs the per-request joint ladder exactly
//	        as before.
//
// The fallback makes hints accelerators only: no hint value can change
// a verdict, it can only route the request through the slow path. The
// LD→affine conversions then ride the batch-wide field inversion with
// everything else.
func (s *batchScratch) verifyPoints(verifyQ []*request) {
	sv := core.Grow(&s.nv, len(verifyQ))
	for i, r := range verifyQ {
		sv[i].SetBig(r.sig.S)
	}
	w := core.Grow(&s.pfx, len(verifyQ))
	core.BatchInv(sv, w)
	for i, r := range verifyQ {
		// u1 = e·s⁻¹, u2 = r·s⁻¹.
		r.u1.SetBig(&r.e).Mul(&r.u1, &w[i])
		r.u2.SetBig(r.sig.R).Mul(&r.u2, &w[i])
	}
	lcQ := s.lcQ[:0]
	for _, r := range verifyQ {
		if r.hint < sign.HintNone {
			lcQ = append(lcQ, r)
		}
	}
	s.lcQ = lcQ
	if len(lcQ) >= lcMinBatch {
		for _, r := range s.verifyLC(lcQ) {
			r.ok = true
			r.lcDone = true
			r.ld = ec.LD64Infinity
		}
	}
	for _, r := range verifyQ {
		if r.lcDone {
			continue
		}
		// The interleaved ladder, over the per-key table when the
		// caller precomputed one.
		r.u1.Big(&s.u1)
		r.u2.Big(&s.u2)
		if r.fb != nil {
			r.ld = s.cs.JointScalarMultFixedLD64(&s.u1, &s.u2, r.fb)
		} else {
			r.ld = s.cs.JointScalarMultLD64(&s.u1, &s.u2, r.point)
		}
	}
}

// recoverPoints reconstructs the nonce point R of every request in q
// (all hinted) by compressed-point decompression of x = r + offset·n,
// batched: the x⁻² terms of the quadratic λ² + λ = x + b/x² share one
// field inversion, and the half-traces run on the frozen table solver
// (ec.SolveQuadratic64). q is compacted in place to the requests whose
// hint decoded to a point of the prime-order subgroup; the rest are
// silently left for the per-request path. The recovered point is
// stored pre-negated (−R = (x, x+y)), which is the form the
// linear-combination sum consumes.
//
// The subgroup membership check (ec.InPrimeSubgroup64, the cheap
// halving-trace test) is soundness-critical, not an optimisation:
// decompression alone only proves R is on the curve, and a forged
// (r, s, hint) built from R = k·G + T with ord(T) ∈ {2, 4} — rejected
// by the one-shot verifier, since x(R) ≠ x(R − T) — would contribute
// a residual ρ·(−T) to the aggregate that vanishes whenever ord(T)
// divides ρ, i.e. with probability 1/2 or 1/4 instead of ≤ 2⁻⁶².
// Off-subgroup recoveries therefore take the per-request ladder path,
// which reproduces the one-shot verdict exactly.
func (s *batchScratch) recoverPoints(q []*request) []*request {
	xv := core.Grow(&s.xv, len(q))
	x2 := core.Grow(&s.x2, len(q))
	n := 0
	for _, r := range q {
		// x = r + offset·n must fit the field (offset 3 can push past
		// 2^233 for large r).
		s.rb.SetInt64(int64(r.hint >> 1))
		s.rb.Mul(&s.rb, ec.Order)
		s.rb.Add(&s.rb, r.sig.R)
		if s.rb.BitLen() > gf233.M {
			continue
		}
		s.rb.FillBytes(s.xb[:])
		x, ok := gf233.FromBytes(s.xb)
		if !ok {
			continue
		}
		// x ≠ 0 always: r ∈ [1, n−1] and offset ≥ 0.
		xe := gf233.ToElem64(x)
		xv[n] = xe
		x2[n] = gf233.Sqr64(xe)
		q[n] = r
		n++
	}
	x2s := core.Grow(&s.x2s, n)
	gf233.InvBatch64(x2[:n], x2s)
	m := 0
	for i := 0; i < n; i++ {
		r, x := q[i], xv[i]
		// λ² + λ = x + b/x² with b = 1; solvability of the quadratic IS
		// the on-curve check for x ≠ 0.
		lam, ok := ec.SolveQuadratic64(gf233.Add64(x, x2[i]))
		if !ok {
			continue
		}
		if byte(lam[0]&1) != r.hint&1 {
			lam = gf233.Add64(lam, gf233.One64)
		}
		y := gf233.Mul64(lam, x)
		if !ec.InPrimeSubgroup64(x, y) {
			continue
		}
		r.rpt = ec.Affine64{X: x, Y: gf233.Add64(x, y)}
		q[m] = r
		m++
	}
	return q[:m]
}

// verifyLC runs the randomised linear-combination check over the
// recovered requests and returns the subset it proved valid (all of
// lcQ on the eligible keys when the aggregate lands on ∞, nil when it
// does not — the caller then falls back to per-request ladders, which
// both identifies the culprits and bounds an attacker feeding invalid
// signatures to ~1.3× the plain batch cost, since the LC pass is a
// small fraction of the ladder work it tries to replace).
//
// Soundness: each weight ρᵢ is an independent uniform nonzero 63-bit
// value unknown to submitters, so a batch containing any request with
// u1ᵢ·G + u2ᵢ·Qᵢ ≠ Rᵢ passes with probability ≤ ~2⁻⁶² — PROVIDED the
// difference is a point of prime order, which is why every point
// entering the aggregate is subgroup-checked with the halving-trace
// test: keys here, once per distinct key per batch (core.InSubgroup,
// ~0.4 µs, cached in the group table), and recovered nonce points in
// recoverPoints (ec.InPrimeSubgroup64 on the decompressed coordinates).
// The per-key coalescing reduces Σρᵢu2ᵢ mod n, which matches the
// per-request ladders only on points of order n, so off-subgroup keys
// are excluded — their requests keep joint-ladder verdicts,
// bit-identical to the one-shot verifier, no matter how the cofactor
// components would have cancelled under aggregation; an off-subgroup
// recovered R would contribute a small-order residual that ρ kills
// with probability 1/ord, so those requests fall back to the ladder
// path too (see recoverPoints).
func (s *batchScratch) verifyLC(lcQ []*request) []*request {
	rhoSrc := s.weightSource()
	if rhoSrc == nil {
		return nil // no unpredictable weights, no aggregate check
	}
	s.ng = 0
	for _, r := range lcQ {
		s.groupFor(r)
	}
	// Coalescing-density gate: the pass only wins when requests share
	// keys — each distinct key costs a table (or α-table build) and its
	// own ~m-digit term, together comparable to the single joint ladder
	// it replaces, plus a subgroup check. Mostly-distinct batches go
	// straight to the per-request path before paying any per-key work.
	if 2*s.ng > len(lcQ) {
		return nil
	}
	for i := 0; i < s.ng; i++ {
		g := &s.groups[i]
		g.in = core.InSubgroup(g.pub)
	}
	kept := lcQ[:0]
	for _, r := range lcQ {
		if s.groupFor(r).in {
			kept = append(kept, r)
		}
	}
	kept = s.recoverPoints(kept)
	if len(kept) < lcMinBatch {
		return nil
	}
	// The generator scalar Σρᵢu1ᵢ and each key's Σρᵢu2ᵢ, mod n.
	var gs, t core.Residue
	for _, r := range kept {
		rho := rhoSrc.Uint64() >> 1
		if rho == 0 {
			rho = 1
		}
		r.rho = rho
		w := core.Residue{rho}
		gs.Add(&gs, t.Mul(&w, &r.u1))
		g := s.groupFor(r)
		g.c.Add(&g.c, t.Mul(&w, &r.u2))
	}
	// Each term recodes its scalar on entry, so one big.Int store
	// serves them all.
	ms := &s.ms
	ms.Reset()
	ms.AddGen(gs.Big(&s.term))
	for i := 0; i < s.ng; i++ {
		g := &s.groups[i]
		if !g.in {
			continue
		}
		if g.fb != nil {
			ms.AddFixed(g.c.Big(&s.term), g.fb)
		} else {
			ms.AddAffine(g.c.Big(&s.term), g.pub.To64())
		}
	}
	for _, r := range kept {
		ms.AddWeighted(r.rho, r.rpt)
	}
	if !ms.Eval().IsInfinity() {
		return nil
	}
	return kept
}

// groupFor finds or creates the coalescing group for the request's
// public key — a linear scan over the batch's distinct keys (point
// equality), which stays cheap because serving batches concentrate on
// few keys. A request carrying a precomputed table upgrades a group
// created without one; the subgroup eligibility check runs once per
// distinct key per batch.
func (s *batchScratch) groupFor(r *request) *lcGroup {
	for i := 0; i < s.ng; i++ {
		g := &s.groups[i]
		if g.pub == r.point {
			if g.fb == nil {
				g.fb = r.fb
			}
			return g
		}
	}
	if s.ng == len(s.groups) {
		s.groups = append(s.groups, lcGroup{})
	}
	g := &s.groups[s.ng]
	s.ng++
	g.pub = r.point
	g.fb = r.fb
	g.c = core.Residue{}
	g.in = false // settled by verifyLC's per-key subgroup sweep
	return g
}

// retrySign redoes one signature sequentially with fresh nonces — the
// rare-corner fallback, allowed to allocate. An engine-hardened
// request whose key is not itself hardened signs through a hardened
// view of the key, so the retry stays on the constant-time path.
func (s *batchScratch) retrySign(r *request) {
	priv := r.priv
	if r.ct && !priv.ConstTime {
		hardened := *priv
		hardened.ConstTime = true
		priv = &hardened
	}
	sig, err := sign.Sign(priv, r.digest, r.rand)
	if err != nil {
		r.err = err
		return
	}
	r.r.Set(sig.R)
	r.s.Set(sig.S)
}

// ECDHResult is one BatchSharedSecret outcome.
type ECDHResult struct {
	Secret [SecretSize]byte
	Err    error
}

// SignResult is one BatchSign outcome. Sig.R and Sig.S are reused
// when non-nil, so callers recycling result slices stay
// allocation-free.
type SignResult struct {
	Sig Signature
	Err error
}

// requestPool backs the synchronous slice APIs.
var requestPool = sync.Pool{New: func() any { return newRequest() }}

// borrowBatch fills s.reqs with n pooled requests.
func (s *batchScratch) borrowBatch(n int) []*request {
	batch := s.reqs[:0]
	for i := 0; i < n; i++ {
		r := requestPool.Get().(*request)
		r.err = nil
		batch = append(batch, r)
	}
	s.reqs = batch
	return batch
}

// returnBatch hands the requests back to the slice-API pool.
func returnBatch(batch []*request) {
	for _, r := range batch {
		r.release()
		requestPool.Put(r)
	}
}

// BatchScalarMult computes dst[i] = ks[i]·points[i] for all i with the
// batch kernel (one field inversion for the whole slice). dst may be
// nil, in which case a fresh slice is returned. Points must lie in the
// prime-order subgroup, as for core.ScalarMult.
func BatchScalarMult(dst []ec.Affine, ks []*big.Int, points []ec.Affine) []ec.Affine {
	if len(ks) != len(points) {
		panic("engine: BatchScalarMult length mismatch")
	}
	if dst == nil {
		dst = make([]ec.Affine, len(ks))
	}
	if len(dst) != len(ks) {
		panic("engine: BatchScalarMult dst length mismatch")
	}
	s := kernelPool.Get().(*batchScratch)
	batch := s.borrowBatch(len(ks))
	for i, r := range batch {
		r.op = opScalarMult
		r.k = ks[i]
		r.point = points[i]
	}
	processBatch(s, batch)
	for i, r := range batch {
		dst[i] = r.res
	}
	returnBatch(batch)
	kernelPool.Put(s)
	return dst
}

// BatchSharedSecret computes the ECDH shared secret against every
// peer (each validated first), writing outcomes into out
// (len(out) == len(peers)).
func BatchSharedSecret(priv *core.PrivateKey, peers []ec.Affine, out []ECDHResult) {
	if len(out) != len(peers) {
		panic("engine: BatchSharedSecret length mismatch")
	}
	s := kernelPool.Get().(*batchScratch)
	batch := s.borrowBatch(len(peers))
	for i, r := range batch {
		r.op = opECDH
		r.priv = priv
		r.point = peers[i]
	}
	processBatch(s, batch)
	for i, r := range batch {
		out[i].Err = r.err
		if r.err == nil {
			out[i].Secret = r.secret
		}
	}
	returnBatch(batch)
	kernelPool.Put(s)
}

// BatchVerify reports, for each i, whether sigs[i] is a valid
// signature over digests[i] under pubs[i], through the batch kernel:
// one batched mod-n inversion for every s⁻¹ in the slice and
// one batched field inversion for every LD→affine conversion. ok is
// the caller-provided result slice (len(ok) == len(pubs)).
func BatchVerify(pubs []ec.Affine, digests [][]byte, sigs []*Signature, ok []bool) {
	BatchVerifyTables(pubs, nil, digests, sigs, ok)
}

// BatchVerifyTables is BatchVerify with optional per-key precomputed
// tables: fbs may be nil, or per-entry nil to fall back to the
// per-call table for that request (fbs[i], when set, must belong to
// pubs[i]).
func BatchVerifyTables(pubs []ec.Affine, fbs []*core.FixedBase, digests [][]byte, sigs []*Signature, ok []bool) {
	if len(digests) != len(pubs) || len(sigs) != len(pubs) || len(ok) != len(pubs) {
		panic("engine: BatchVerify length mismatch")
	}
	if fbs != nil && len(fbs) != len(pubs) {
		panic("engine: BatchVerify tables length mismatch")
	}
	s := kernelPool.Get().(*batchScratch)
	batch := s.borrowBatch(len(pubs))
	for i, r := range batch {
		r.op = opVerify
		r.point = pubs[i]
		r.digest = digests[i]
		r.sig = sigs[i]
		if fbs != nil {
			r.fb = fbs[i]
		}
	}
	processBatch(s, batch)
	for i, r := range batch {
		ok[i] = r.ok
	}
	returnBatch(batch)
	kernelPool.Put(s)
}

// BatchVerifyRecoverable is BatchVerifyTables with per-request nonce
// recovery hints (sign.SignRecoverable / sign.RecoverHint): requests
// whose hint decodes to the nonce point verify through the randomised
// linear-combination pass — one shared multi-scalar evaluation for the
// whole batch instead of one joint ladder per request. hints[i] values
// ≥ sign.HintNone mean "no hint" and take the per-request path; hints
// may also be nil for an all-unhinted batch. Verdicts are identical to
// BatchVerify for every input: a wrong hint only costs the fast path,
// and any aggregate-check failure falls back to per-request ladders to
// identify the invalid signatures individually.
func BatchVerifyRecoverable(pubs []ec.Affine, fbs []*core.FixedBase, digests [][]byte, sigs []*Signature, hints []byte, ok []bool) {
	if len(digests) != len(pubs) || len(sigs) != len(pubs) || len(ok) != len(pubs) {
		panic("engine: BatchVerifyRecoverable length mismatch")
	}
	if fbs != nil && len(fbs) != len(pubs) {
		panic("engine: BatchVerifyRecoverable tables length mismatch")
	}
	if hints != nil && len(hints) != len(pubs) {
		panic("engine: BatchVerifyRecoverable hints length mismatch")
	}
	s := kernelPool.Get().(*batchScratch)
	batch := s.borrowBatch(len(pubs))
	for i, r := range batch {
		r.op = opVerify
		r.point = pubs[i]
		r.digest = digests[i]
		r.sig = sigs[i]
		if fbs != nil {
			r.fb = fbs[i]
		}
		if hints != nil {
			r.hint = hints[i]
		}
	}
	processBatch(s, batch)
	for i, r := range batch {
		ok[i] = r.ok
	}
	returnBatch(batch)
	kernelPool.Put(s)
}

// ExtractResult is one BatchExtract outcome.
type ExtractResult struct {
	Pub ec.Affine
	Err error
}

// BatchExtract computes the implicit-certificate public-key extraction
// Q_U = e·P_U + Q_CA for every certificate point, writing outcomes
// into out (len(out) == len(certs)). digests[i] is the certificate
// hash input for certs[i] (the kernel folds it to the scalar e); ca is
// the issuing CA's public key point, which must be a validated
// subgroup point (it comes from an opaque key at every call site).
// Certificate points are re-validated inside the kernel and corrupt
// entries fail individually with ErrExtractPoint — a mixed batch still
// extracts every valid certificate.
//
// The batch amortisation is threefold: the α-table sum/dif
// normalisations of all ladders share one field inversion, the α
// tables themselves share another, and the final LD→affine
// conversions share the batch-wide inversion — against four
// inversions on the one-shot path. Both paths validate the output with
// the same ~0.4 µs halving-trace subgroup test.
func BatchExtract(certs []ec.Affine, ca ec.Affine, digests [][]byte, out []ExtractResult) {
	if len(digests) != len(certs) || len(out) != len(certs) {
		panic("engine: BatchExtract length mismatch")
	}
	ca64 := ca.To64()
	s := kernelPool.Get().(*batchScratch)
	batch := s.borrowBatch(len(certs))
	for i, r := range batch {
		r.op = opExtract
		r.point = certs[i]
		r.digest = digests[i]
		r.ca = ca64
	}
	processBatch(s, batch)
	for i, r := range batch {
		out[i].Err = r.err
		if r.err == nil {
			out[i].Pub = r.res
		} else {
			out[i].Pub = ec.Infinity
		}
	}
	returnBatch(batch)
	kernelPool.Put(s)
}

// BatchSign signs every digest with nonces drawn from rand, writing
// outcomes into out (len(out) == len(digests)). Result signatures
// reuse out[i].Sig.R/S when non-nil.
func BatchSign(priv *core.PrivateKey, digests [][]byte, rand io.Reader, out []SignResult) {
	if len(out) != len(digests) {
		panic("engine: BatchSign length mismatch")
	}
	s := kernelPool.Get().(*batchScratch)
	batch := s.borrowBatch(len(digests))
	for i, r := range batch {
		r.op = opSign
		r.priv = priv
		r.digest = digests[i]
		r.rand = rand
	}
	processBatch(s, batch)
	for i, r := range batch {
		out[i].Err = r.err
		if r.err != nil {
			continue
		}
		if out[i].Sig.R == nil {
			out[i].Sig.R = new(big.Int)
		}
		if out[i].Sig.S == nil {
			out[i].Sig.S = new(big.Int)
		}
		out[i].Sig.R.Set(&r.r)
		out[i].Sig.S.Set(&r.s)
	}
	returnBatch(batch)
	kernelPool.Put(s)
}
