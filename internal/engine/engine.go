// Package engine is the concurrent batch engine: it collects
// independent ECC requests (generic k·P, ECDH shared secrets, ECDSA
// signing and verification) from many goroutines and executes them in
// batches so the expensive per-request tail work is amortised across
// the whole batch:
//
//   - every scalar multiplication stops in López-Dahab projective
//     coordinates, and ONE field inversion (Montgomery's trick,
//     gf233.InvBatch64: one Inv64 plus 3(N−1) multiplications) converts
//     the whole batch back to affine;
//   - the mod-n inversions are batched the same way (core.BatchInv on
//     machine words): one constant-time safegcd inversion per batch
//     covers every signing nonce, fast and hardened alike, and another
//     every verification's s⁻¹;
//   - incoming ECDH peers are validated with the exact halving-trace
//     subgroup test (ecdh.ValidateTau → core.InSubgroup): two traces
//     and one table half-trace, ~0.4 µs, no inversion;
//   - each worker owns a core.Scratch, so the steady-state hot path
//     performs zero heap allocations.
//
// Engine is the concurrent front end (submit from any goroutine,
// batches form from whatever is in flight); BatchScalarMult,
// BatchSharedSecret and BatchSign are the synchronous slice APIs for
// callers that already hold a batch in hand. Both run the same kernel.
//
// Every Engine request completes through one path: right after its
// batch (and OnBatch), the worker calls the request's completion. The
// callback forms (SignAsync, SharedSecretAsync, VerifyAsync) hand the
// outcome to the caller's callback there, on the worker, so a server
// can answer a whole batch from the goroutine that computed it; the
// synchronous methods submit and then wait for the completion to wake
// them.
package engine

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/gf233"
)

// ErrEngineClosed is returned by every submit path once Close has been
// called (or while it is in progress). A server drain sequence may
// therefore race late submissions against Close freely: they fail with
// this error instead of panicking.
var ErrEngineClosed = errors.New("engine: engine is closed")

// ErrBatchPanic wraps a panic recovered inside the batch kernel. Every
// request that shared the panicking batch fails with an error chain
// containing this sentinel; the worker itself survives, so the pool
// never silently shrinks.
var ErrBatchPanic = errors.New("engine: batch worker panicked")

// Hard caps on the Config knobs. fill clamps to these (as do the
// public repro options), so absurd-but-accepted values can never
// overflow the Queue product into a negative channel capacity or
// commit the process to an unbounded number of goroutines.
const (
	// DefaultMaxBatch is the MaxBatch used when none is configured.
	DefaultMaxBatch = 32
	// MaxBatchLimit caps MaxBatch.
	MaxBatchLimit = 1 << 16
	// WorkersLimit caps Workers.
	WorkersLimit = 1 << 12
	// QueueLimit caps Queue. 2·MaxBatchLimit·WorkersLimit still fits an
	// int32, so the derived default cannot overflow before this clamp
	// applies.
	QueueLimit = 1 << 18
)

// Config sizes an Engine.
type Config struct {
	// MaxBatch caps how many requests one worker drains into a single
	// batch. Bigger batches amortise the two batched inversions
	// further but add head-of-line latency under light load.
	// Defaults to 32, past which the inversion share of an op is
	// already down in the noise (see cmd/eccload). Clamped to
	// [1, MaxBatchLimit].
	MaxBatch int
	// Workers is the number of processing goroutines, each with its
	// own scratch state. Defaults to GOMAXPROCS; clamped to
	// [1, WorkersLimit].
	Workers int
	// Queue is the request channel depth. Defaults to
	// 2 · MaxBatch · Workers; clamped to [1, QueueLimit].
	Queue int
	// BatchWindow bounds how long a batch keeps collecting. Zero (the
	// default) keeps the greedy drain: take whatever is already queued
	// and run at once. A positive window adds a collect after that
	// drain: the worker yields (runtime.Gosched, then sched_yield on
	// Linux if nothing came) so that submitters ready to run can queue
	// their requests, drains again, and repeats until a quiet gap
	// passes with no new request, the batch reaches MaxBatch or
	// BatchWindow has passed since the batch opened. The gap is the
	// longer of 20 µs and the worker's previous batch run time per
	// request. Nothing sleeps or arms a timer: a lone request runs
	// after that gap whatever the window, and the window matters only
	// while submitters keep arriving, where it caps the first request's
	// wait for the rest of its batch. A serving front end sets hundreds
	// of microseconds.
	BatchWindow time.Duration
	// OnBatch, when non-nil, observes every processed batch with its
	// size, after the kernel ran and before the batch's requests
	// complete. It is called from worker goroutines concurrently and
	// must be fast and safe for concurrent use (atomic counters,
	// histogram buckets).
	OnBatch func(size int)
	// SkipWarm defers the eager core.Warm() table construction New
	// performs by default; the first requests then pay it lazily.
	SkipWarm bool
	// ConstTime routes every secret-scalar operation in this engine —
	// signing nonces and ECDH — through the constant-time evaluators,
	// regardless of the per-key ConstTime flag (a hardened key stays
	// hardened either way). Signatures are byte-identical to the fast
	// path. Only the nonce point changes (the constant-time comb): the
	// mod-n work is constant-time for every request, so hardened
	// signatures share the batch's one nonce inversion and the one
	// assembly of s with fast ones. Verification, which handles only
	// public inputs, is unaffected.
	ConstTime bool
}

// fill applies defaults and clamps every knob into its documented
// range. The clamps run before the Queue product is formed, so the
// derived default can never overflow.
func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxBatch > MaxBatchLimit {
		c.MaxBatch = MaxBatchLimit
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > WorkersLimit {
		c.Workers = WorkersLimit
	}
	if c.Queue <= 0 {
		c.Queue = 2 * c.MaxBatch * c.Workers
	}
	if c.Queue > QueueLimit {
		c.Queue = QueueLimit
	}
	if c.BatchWindow < 0 {
		c.BatchWindow = 0
	}
}

// Engine collects requests from concurrent callers and processes them
// in batches. All methods are safe for concurrent use; the zero value
// is not usable — construct with New, and Close when done. Submitting
// after (or racing with) Close is safe and fails with ErrEngineClosed;
// Close itself is idempotent.
type Engine struct {
	cfg  Config
	reqs chan *request
	pool sync.Pool
	wg   sync.WaitGroup
	// mu guards closed and makes the channel send in do safe against a
	// concurrent Close: submitters hold the read side across the send,
	// Close takes the write side before closing the channel.
	mu     sync.RWMutex
	closed bool
}

// New starts an Engine with cfg (zero fields take defaults, see
// Config). Unless cfg.SkipWarm is set it warms the shared table
// registry eagerly so the first wave of requests does not pay
// generator-table construction.
func New(cfg Config) *Engine {
	cfg.fill()
	if !cfg.SkipWarm {
		core.Warm()
	}
	e := &Engine{
		cfg:  cfg,
		reqs: make(chan *request, cfg.Queue),
	}
	e.pool.New = func() any { return e.newRequest() }
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// MaxBatch reports the configured per-flush batch cap.
func (e *Engine) MaxBatch() int { return e.cfg.MaxBatch }

// Close stops the workers after draining in-flight requests.
// Submissions racing with or following Close fail with
// ErrEngineClosed; calling Close again is a no-op.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.reqs)
	e.mu.Unlock()
	e.wg.Wait()
}

// collectQuiet is the shortest quiet gap that closes a collecting
// batch. The gap is the longer of this and the worker's previous batch
// run time per request, so it grows with whatever slows the process
// down (the race detector slows submitters and kernels alike) but not
// with the batch size.
const collectQuiet = 20 * time.Microsecond

// worker drains the request channel into batches: block for the first
// request, then greedily take whatever else is already queued (up to
// MaxBatch). With a BatchWindow configured it then collects (see
// collect) before running the batch.
//
// The yield is what forms batches: a submit that wakes the blocked
// worker puts it in the submitting P's runnext slot, ahead of request
// goroutines that are already runnable, so the greedy drain sees one
// request; the yield moves the worker behind them. One yield is not
// enough with more than one P: the submitters of a burst may run one
// after another on another P, and closing on the first yield that
// brought nothing split a burst of six into six batches in about one
// try in a hundred at two Ps. Hence the quiet gap.
func (e *Engine) worker() {
	defer e.wg.Done()
	s := newBatchScratch()
	batch := make([]*request, 0, e.cfg.MaxBatch)
	var perOp time.Duration // the last batch's run time per request
	for {
		r, ok := <-e.reqs
		if !ok {
			return
		}
		batch, ok = e.drain(append(batch[:0], r))
		if ok && e.cfg.BatchWindow > 0 {
			batch = e.collect(batch, max(collectQuiet, perOp))
		}
		start := time.Now()
		s = e.runBatch(s, batch)
		perOp = time.Since(start) / time.Duration(len(batch))
		if e.cfg.OnBatch != nil {
			e.cfg.OnBatch(len(batch))
		}
		for _, r := range batch {
			r.done()
		}
	}
}

// collect extends a batch the greedy drain left short of MaxBatch: it
// yields (runtime.Gosched) and drains again until quiet has passed
// since the batch last grew, the batch is full, BatchWindow has passed
// since the collect began, or the request channel is closed. A yield
// that brings nothing is followed by osYield, so that a thread the
// kernel queued on this CPU gets to run and submit. The clock is read
// between yields and never slept on.
func (e *Engine) collect(batch []*request, quiet time.Duration) []*request {
	opened := time.Now()
	last := opened
	for ok := true; ok && len(batch) < e.cfg.MaxBatch; {
		runtime.Gosched()
		n := len(batch)
		batch, ok = e.drain(batch)
		now := time.Now()
		switch {
		case now.Sub(opened) >= e.cfg.BatchWindow:
			return batch
		case len(batch) > n:
			last = now
		case now.Sub(last) >= quiet:
			return batch
		default:
			osYield()
		}
	}
	return batch
}

// drain appends what is already queued to batch, up to MaxBatch,
// without blocking. It reports false once the request channel is
// closed.
func (e *Engine) drain(batch []*request) ([]*request, bool) {
	for len(batch) < e.cfg.MaxBatch {
		select {
		case r, ok := <-e.reqs:
			if !ok {
				return batch, false
			}
			batch = append(batch, r)
		default:
			return batch, true
		}
	}
	return batch, true
}

// runBatch executes one batch through processBatch, containing any
// panic from the kernel: every request in the panicking batch fails
// with an ErrBatchPanic-wrapped error (so every request still
// completes, through its callback or by waking its waiter), and the
// worker's scratch — whose state the aborted kernel may have left
// arbitrarily corrupted, with mid-batch secrets still in it — is
// abandoned for a fresh one. The returned scratch is the one the
// worker should keep using.
func (e *Engine) runBatch(s *batchScratch, batch []*request) (out *batchScratch) {
	out = s
	defer func() {
		if p := recover(); p != nil {
			out = newBatchScratch()
			func() {
				// Best-effort scrub of the abandoned scratch; never let
				// a second panic escape the recovery path.
				defer func() { recover() }()
				s.cs.Wipe()
			}()
			err := fmt.Errorf("%w: %v", ErrBatchPanic, p)
			for _, r := range batch {
				r.ok = false
				if r.err == nil {
					r.err = err
				}
			}
		}
	}()
	processBatch(s, batch)
	return out
}

// submit queues r for the workers, which own it from then on. It
// reports ErrEngineClosed — without touching the channel — when the
// engine is closed or closing.
func (e *Engine) submit(r *request) error {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return ErrEngineClosed
	}
	e.reqs <- r
	e.mu.RUnlock()
	return nil
}

// do submits one request and waits for its completion to wake it; the
// caller then reads the outcome and pools r.
func (e *Engine) do(r *request) error {
	r.done = r.wake
	if err := e.submit(r); err != nil {
		return err
	}
	<-r.woken
	return nil
}

// start submits a callback-form request. On ErrEngineClosed the
// callback never runs and r goes straight back to the pool.
func (e *Engine) start(r *request) error {
	r.done = r.finish
	if err := e.submit(r); err != nil {
		e.put(r)
		return err
	}
	return nil
}

// newRequest binds the two completions of a pooled Engine request.
func (e *Engine) newRequest() *request {
	r := newRequest()
	r.woken = make(chan struct{}, 1)
	r.wake = func() { r.woken <- struct{}{} }
	r.finish = func() {
		r.callback()
		e.put(r)
	}
	return r
}

func (e *Engine) get(op opKind) *request {
	r := e.pool.Get().(*request)
	r.op = op
	r.err = nil
	return r
}

func (e *Engine) put(r *request) {
	// release drops caller-owned references and scrubs nonce/secret
	// state so the pool retains neither; the scrubbed big.Ints keep
	// their storage, which is the reuse that makes steady state
	// allocation-free.
	r.release()
	e.pool.Put(r)
}

// ScalarMult computes k·P, batched with whatever else is in flight.
// Same contract as core.ScalarMult: P must lie in the prime-order
// subgroup (validate untrusted points first). It fails with
// ErrEngineClosed after Close.
func (e *Engine) ScalarMult(k *big.Int, p ec.Affine) (ec.Affine, error) {
	r := e.get(opScalarMult)
	r.k = k
	r.point = p
	if err := e.do(r); err != nil {
		e.put(r)
		return ec.Infinity, err
	}
	res, err := r.res, r.err
	e.put(r)
	return res, err
}

// Extract computes the implicit-certificate public-key extraction
// Q_U = e·P_U + Q_CA, batched with whatever else is in flight: the
// ladder's table normalisations and the final LD→affine conversion
// all ride batch-wide inversions (see BatchExtract). cert is the
// certificate point (re-validated inside the kernel — a corrupt point
// fails with ErrExtractPoint, it cannot reach the ladders); digest is
// the certificate hash input; ca must be a validated subgroup point.
func (e *Engine) Extract(cert ec.Affine, ca ec.Affine, digest []byte) (ec.Affine, error) {
	r := e.get(opExtract)
	r.point = cert
	r.ca = ca.To64()
	r.digest = digest
	if err := e.do(r); err != nil {
		e.put(r)
		return ec.Infinity, err
	}
	res, err := r.res, r.err
	e.put(r)
	if err != nil {
		return ec.Infinity, err
	}
	return res, nil
}

// SharedSecretAppend computes the ECDH shared secret d·Q against the
// validated peer and appends the shared abscissa to dst (steady-state
// allocation-free when dst has capacity). The peer is fully validated
// (curve membership, identity, prime-order subgroup) before the
// private scalar touches it.
func (e *Engine) SharedSecretAppend(dst []byte, priv *core.PrivateKey, peer ec.Affine) ([]byte, error) {
	r := e.get(opECDH)
	r.priv = priv
	r.point = peer
	r.ct = e.cfg.ConstTime || priv.ConstTime
	if err := e.do(r); err != nil {
		e.put(r)
		return dst, err
	}
	err := r.err
	if err == nil {
		dst = append(dst, r.secret[:]...)
	}
	e.put(r)
	return dst, err
}

// SharedSecret is SharedSecretAppend into a fresh slice.
func (e *Engine) SharedSecret(priv *core.PrivateKey, peer ec.Affine) ([]byte, error) {
	return e.SharedSecretAppend(make([]byte, 0, gf233.ByteLen), priv, peer)
}

// SharedSecretAsync is SharedSecret in callback form: it queues the
// request and returns. done runs on a worker goroutine right after the
// request's batch and must not block; the secret it receives is valid
// only during the call. A non-nil return (ErrEngineClosed) means done
// never runs.
func (e *Engine) SharedSecretAsync(priv *core.PrivateKey, peer ec.Affine, done func(secret []byte, err error)) error {
	r := e.get(opECDH)
	r.priv = priv
	r.point = peer
	r.ct = e.cfg.ConstTime || priv.ConstTime
	r.onSecret = done
	return e.start(r)
}

// SignInto produces an ECDSA-style signature over digest, drawing the
// nonce from rand, and stores it in sig (whose R and S are reused when
// non-nil — the allocation-free steady state for callers that recycle
// signatures). The semantics match sign.Sign.
func (e *Engine) SignInto(sig *Signature, priv *core.PrivateKey, digest []byte, rand io.Reader) error {
	r := e.get(opSign)
	r.priv = priv
	r.digest = digest
	r.rand = rand
	r.ct = e.cfg.ConstTime || priv.ConstTime
	if err := e.do(r); err != nil {
		e.put(r)
		return err
	}
	err := r.err
	if err == nil {
		if sig.R == nil {
			sig.R = new(big.Int)
		}
		if sig.S == nil {
			sig.S = new(big.Int)
		}
		sig.R.Set(&r.r)
		sig.S.Set(&r.s)
	}
	e.put(r)
	return err
}

// Sign is SignInto returning a fresh signature.
func (e *Engine) Sign(priv *core.PrivateKey, digest []byte, rand io.Reader) (*Signature, error) {
	sig := new(Signature)
	if err := e.SignInto(sig, priv, digest, rand); err != nil {
		return nil, err
	}
	return sig, nil
}

// SignAsync is Sign in callback form, with SharedSecretAsync's
// contract: the signature done receives is valid only during the call,
// and digest and rand must stay usable until done runs.
func (e *Engine) SignAsync(priv *core.PrivateKey, digest []byte, rand io.Reader, done func(sig *Signature, err error)) error {
	r := e.get(opSign)
	r.priv = priv
	r.digest = digest
	r.rand = rand
	r.ct = e.cfg.ConstTime || priv.ConstTime
	r.onSign = done
	return e.start(r)
}

// Verify reports whether sig is a valid signature over digest for the
// public point, batched with whatever else is in flight: the s⁻¹
// inversions of a batch share one Montgomery-trick mod-n inversion and
// the final LD→affine conversions share the batch-wide field
// inversion. fb is an optional precomputed table for pub (it must
// belong to pub); nil selects the per-call table. Semantics match
// sign.Verify; the error is non-nil only for engine-lifecycle
// failures (ErrEngineClosed, ErrBatchPanic), never for an invalid
// signature — that is ok == false.
func (e *Engine) Verify(pub ec.Affine, fb *core.FixedBase, digest []byte, sig *Signature) (bool, error) {
	r := e.get(opVerify)
	r.point = pub
	r.fb = fb
	r.digest = digest
	r.sig = sig
	if err := e.do(r); err != nil {
		e.put(r)
		return false, err
	}
	ok, err := r.ok, r.err
	e.put(r)
	return ok, err
}

// VerifyRecoverable is Verify with a nonce-point recovery hint (from
// sign.SignRecoverable or sign.RecoverHint): requests that land in the
// same batch and carry usable hints share one randomised
// linear-combination check — a single multi-scalar evaluation for the
// whole batch — instead of one joint ladder each. A hint ≥
// sign.HintNone (or simply a wrong one) selects the per-request path;
// the verdict is identical to Verify for every (sig, hint) pair.
func (e *Engine) VerifyRecoverable(pub ec.Affine, fb *core.FixedBase, digest []byte, sig *Signature, hint byte) (bool, error) {
	r := e.get(opVerify)
	r.point = pub
	r.fb = fb
	r.digest = digest
	r.sig = sig
	r.hint = hint
	if err := e.do(r); err != nil {
		e.put(r)
		return false, err
	}
	ok, err := r.ok, r.err
	e.put(r)
	return ok, err
}

// VerifyAsync is VerifyRecoverable in callback form (hint ≥
// sign.HintNone for a plain Verify), with SharedSecretAsync's
// contract: digest and sig must stay unchanged until done runs.
func (e *Engine) VerifyAsync(pub ec.Affine, fb *core.FixedBase, digest []byte, sig *Signature, hint byte, done func(ok bool, err error)) error {
	r := e.get(opVerify)
	r.point = pub
	r.fb = fb
	r.digest = digest
	r.sig = sig
	r.hint = hint
	r.onVerify = done
	return e.start(r)
}
