package main

import (
	"bytes"
	"container/list"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	mrand "math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/frame"
)

// Seed streams. Every input of a run is drawn from the run's seed
// through one of these independent streams, so the same seed gives the
// same inputs and a new draw in one stream leaves the others unchanged.
// The M0+ scalars alone come from a fixed seed (m0Seed), so that their
// cycle counts are the same in every run.
const (
	streamServerKey = iota + 1
	streamKeys
	streamDigests
	streamDraw
	streamLadder
	streamM0
	streamPhase = 100 // + phase index
)

func seededRand(seed int64, stream uint64) *mrand.Rand {
	return mrand.New(mrand.NewPCG(uint64(seed), stream))
}

// keyReader is a seeded byte stream for key generation.
func keyReader(seed int64, stream uint64) io.Reader {
	var s [32]byte
	binary.LittleEndian.PutUint64(s[:], uint64(seed))
	binary.LittleEndian.PutUint64(s[8:], stream)
	return mrand.NewChaCha8(s)
}

func randomDigest(r *mrand.Rand) []byte {
	d := make([]byte, 32)
	for i := range d {
		d[i] = byte(r.Uint32())
	}
	return d
}

// req is one request of a stream: indexes into the workload's seeded
// fixtures, never the bytes themselves, so a stream is cheap to store
// and to digest.
type req struct {
	typ    byte
	key    int32 // signer, node or peer index
	item   int32 // digest or signature index
	bad    bool  // carries a corrupted signature and must be answered invalid
	sample bool  // the response is verified cryptographically after the phase
}

// traffic is one workload's request mix and its correctness oracle.
type traffic interface {
	// draw picks the next request of a stream.
	draw(r *mrand.Rand) req
	// warmSet lists the requests the set-up sends after the handshake,
	// and finish completes the set-up from their answers.
	warmSet() []req
	finish() error
	// encode appends q's payload segments to segs.
	encode(q req, segs [][]byte) (byte, [][]byte)
	// check validates the payload of a TOK answer to q.
	check(q req, payload []byte) error
	// replay performs q in process on the shard the server would use.
	replay(q req, shard *repro.BatchEngine) error
	// verifySamples runs the checks deferred to the end of a phase.
	verifySamples() error
	checks() map[string]int64
}

// workload is one traffic mix with its fixed open-loop rates.
type workload struct {
	name        string
	light, busy float64 // requests/s
	build       func(seed int64, server *repro.PrivateKey) (traffic, error)
}

// The busy rates sit at an eighth to a quarter of each workload's
// saturation throughput. verify-hot's is an eighth: at a quarter
// (10000/s) a host stall of ~25 ms queues more than the server's
// in-flight cap of 256 and it sheds, as it did in 3 of 30 runs.
var workloads = []workload{
	{"verify-hot", 2000, 5000, newVerifyHot},
	{"cert-fleet", 200, 600, newCertFleet},
	{"sign-ecdh", 1000, 4000, newSignECDH},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// serverKey is the server's identity for a seed.
func serverKey(seed int64) (*repro.PrivateKey, error) {
	return repro.GenerateKey(keyReader(seed, streamServerKey))
}

var errWrongAnswer = errors.New("wrong answer")

func verdict(payload []byte, want bool) error {
	if len(payload) != 1 || payload[0] > 1 {
		return fmt.Errorf("%w: verdict payload %x", errWrongAnswer, payload)
	}
	if (payload[0] == 1) != want {
		return fmt.Errorf("%w: verdict %d, want %v", errWrongAnswer, payload[0], want)
	}
	return nil
}

// counter is a named correctness-check tally.
type counter struct {
	verdictChecks, secretChecks, sigChecks, corruptRejected atomic.Int64
}

func (c *counter) checks() map[string]int64 {
	return map[string]int64{
		"verdicts_compared":    c.verdictChecks.Load(),
		"secrets_compared":     c.secretChecks.Load(),
		"signatures_verified":  c.sigChecks.Load(),
		"corrupt_sigs_invalid": c.corruptRejected.Load(),
	}
}

// verify-hot: hinted verification from a few signers whose tables stay
// resident in the server's key cache.

const (
	hotSigners = 4
	hotItems   = 1024
)

type verifyHot struct {
	counter
	keys    [][]byte
	pubs    []*repro.PublicKey
	digests [][]byte
	sigs    [][]byte
	parsed  []*repro.Signature
	hints   []byte
}

func newVerifyHot(seed int64, _ *repro.PrivateKey) (traffic, error) {
	w := &verifyHot{}
	kr, r := keyReader(seed, streamKeys), seededRand(seed, streamDigests)
	var privs []*repro.PrivateKey
	for range hotSigners {
		priv, err := repro.GenerateKey(kr)
		if err != nil {
			return nil, err
		}
		privs = append(privs, priv)
		w.keys = append(w.keys, priv.PublicKey().BytesCompressed())
		pub, err := repro.NewPublicKey(w.keys[len(w.keys)-1])
		if err != nil {
			return nil, err
		}
		pub.Precompute()
		w.pubs = append(w.pubs, pub)
	}
	for i := range hotItems {
		d := randomDigest(r)
		sig, hint, err := repro.SignRecoverable(nil, privs[i%hotSigners], d)
		if err != nil {
			return nil, err
		}
		w.digests = append(w.digests, d)
		w.sigs = append(w.sigs, sig.Bytes())
		w.parsed = append(w.parsed, sig)
		w.hints = append(w.hints, hint)
	}
	return w, nil
}

func (w *verifyHot) draw(r *mrand.Rand) req {
	i := r.IntN(hotItems)
	return req{typ: frame.TVerifyR, key: int32(i % hotSigners), item: int32(i)}
}

// warmSet builds each signer's table in the server's cache.
func (w *verifyHot) warmSet() []req {
	var qs []req
	for k := range hotSigners {
		qs = append(qs, req{typ: frame.TVerifyR, key: int32(k), item: int32(k)})
	}
	return qs
}

func (w *verifyHot) finish() error { return nil }

func (w *verifyHot) encode(q req, segs [][]byte) (byte, [][]byte) {
	i := q.item
	return frame.TVerifyR, append(segs, w.hints[i:i+1], w.keys[q.key], w.sigs[i], w.digests[i])
}

func (w *verifyHot) check(q req, payload []byte) error {
	w.verdictChecks.Add(1)
	return verdict(payload, true)
}

func (w *verifyHot) replay(q req, shard *repro.BatchEngine) error {
	ok, err := shard.VerifyKeyRecoverable(w.pubs[q.key], w.digests[q.item], w.parsed[q.item], w.hints[q.item])
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: replayed verification rejected a valid signature", errWrongAnswer)
	}
	return nil
}

func (w *verifyHot) verifySamples() error { return nil }

// cert-fleet: a node fleet enrolled over the wire, three times the
// size of the server's default key cache and verified uniformly, so
// about a third of the requests hit a resident table and the median
// request builds one. (At twice the cache size the hit ratio would sit
// at one half, and the median would flip between the hit and the build
// latency from run to run.)

const (
	fleetNodes    = 3072
	fleetDigests  = 2
	fleetBadEvery = 32
	fleetCacheCap = 1024 // eccserve's default -keycache
)

type certFleet struct {
	counter
	caPub   *repro.PublicKey
	reqs    []*repro.CertRequest
	ids     [][]byte
	digests [][]byte

	// Filled by the enrollment in each set-up.
	answers [][]byte // cert ‖ contrib per node
	prefix  [][]byte // cert ‖ idLen ‖ identity: the TCertVerify head
	good    [][]byte // [node*fleetDigests+item] raw signatures
	bad     [][]byte // the same, corrupted
	pubs    []*repro.PublicKey
	pGood   []*repro.Signature
	pBad    []*repro.Signature // nil where the corruption does not parse

	lruMu sync.Mutex
	lru   *list.List // replay's stand-in for the server key cache
	lruAt map[int32]*list.Element
}

type lruEntry struct {
	node int32
	pub  *repro.PublicKey
}

func newCertFleet(seed int64, server *repro.PrivateKey) (traffic, error) {
	w := &certFleet{caPub: server.PublicKey()}
	kr, r := keyReader(seed, streamKeys), seededRand(seed, streamDigests)
	for i := range fleetNodes {
		id := []byte(fmt.Sprintf("node-%04d", i))
		cr, err := repro.RequestCert(kr, id)
		if err != nil {
			return nil, err
		}
		w.reqs = append(w.reqs, cr)
		w.ids = append(w.ids, id)
	}
	for range fleetDigests {
		w.digests = append(w.digests, randomDigest(r))
	}
	w.answers = make([][]byte, fleetNodes)
	return w, nil
}

func (w *certFleet) draw(r *mrand.Rand) req {
	return req{
		typ:  frame.TCertVerify,
		key:  int32(r.IntN(fleetNodes)),
		item: int32(r.IntN(fleetDigests)),
		bad:  r.IntN(fleetBadEvery) == 0,
	}
}

// warmSet enrolls the whole fleet.
func (w *certFleet) warmSet() []req {
	qs := make([]req, fleetNodes)
	for i := range qs {
		qs[i] = req{typ: frame.TEnroll, key: int32(i)}
	}
	return qs
}

// finish reconstructs every node's key from its enrollment answer and
// signs the digests with it, on all CPUs.
func (w *certFleet) finish() error {
	n := fleetNodes * fleetDigests
	w.prefix = make([][]byte, fleetNodes)
	w.pubs = make([]*repro.PublicKey, fleetNodes)
	w.good, w.bad = make([][]byte, n), make([][]byte, n)
	w.pGood, w.pBad = make([]*repro.Signature, n), make([]*repro.Signature, n)
	return parallel(fleetNodes, func(node int) error {
		a := w.answers[node]
		certBytes, contrib := a[:frame.CertSize], a[frame.CertSize:]
		cert, err := repro.ParseCert(certBytes, w.ids[node])
		if err != nil {
			return fmt.Errorf("node %d: server issued an unparsable certificate: %w", node, err)
		}
		priv, err := repro.ReconstructPrivateKey(w.reqs[node], cert, contrib, w.caPub)
		if err != nil {
			return fmt.Errorf("node %d: reconstruct: %w", node, err)
		}
		w.pubs[node] = priv.PublicKey()
		head := append([]byte(nil), certBytes...)
		head = append(head, byte(len(w.ids[node])))
		w.prefix[node] = append(head, w.ids[node]...)
		for item, d := range w.digests {
			sig, err := repro.SignDeterministic(priv, d)
			if err != nil {
				return err
			}
			j := node*fleetDigests + item
			w.good[j], w.pGood[j] = sig.Bytes(), sig
			w.bad[j] = append([]byte(nil), w.good[j]...)
			w.bad[j][len(w.bad[j])-1] ^= 1
			w.pBad[j], _ = repro.ParseSignature(w.bad[j]) // nil: answered invalid unparsed
		}
		return nil
	})
}

func (w *certFleet) encode(q req, segs [][]byte) (byte, [][]byte) {
	if q.typ == frame.TEnroll {
		return frame.TEnroll, append(segs, w.reqs[q.key].Bytes(), w.ids[q.key])
	}
	j := int(q.key)*fleetDigests + int(q.item)
	sig := w.good[j]
	if q.bad {
		sig = w.bad[j]
	}
	return frame.TCertVerify, append(segs, w.prefix[q.key], sig, w.digests[q.item])
}

func (w *certFleet) check(q req, payload []byte) error {
	if q.typ == frame.TEnroll {
		if len(payload) != frame.CertSize+frame.ContribSize {
			return fmt.Errorf("%w: %d-byte enrollment answer", errWrongAnswer, len(payload))
		}
		w.answers[q.key] = append([]byte(nil), payload...)
		return nil
	}
	w.verdictChecks.Add(1)
	if err := verdict(payload, !q.bad); err != nil {
		return err
	}
	if q.bad {
		w.corruptRejected.Add(1)
	}
	return nil
}

// seedLRU fills the replay's key cache with the steady state of
// uniform traffic: a seeded cache-full of the fleet, tables built.
func (w *certFleet) seedLRU(seed int64) error {
	w.lru, w.lruAt = list.New(), make(map[int32]*list.Element)
	r := seededRand(seed, streamDraw+1)
	for _, node := range r.Perm(fleetNodes)[:fleetCacheCap] {
		pub, err := repro.NewPublicKey(w.pubs[node].BytesCompressed())
		if err != nil {
			return err
		}
		pub.Precompute()
		w.lruAt[int32(node)] = w.lru.PushFront(lruEntry{int32(node), pub})
	}
	return nil
}

// replay mirrors the server's certverify path: a cache hit verifies on
// the resident table, a miss parses the certificate, extracts through
// the shard and builds the table first.
func (w *certFleet) replay(q req, shard *repro.BatchEngine) error {
	w.lruMu.Lock()
	var pub *repro.PublicKey
	if e, ok := w.lruAt[q.key]; ok {
		w.lru.MoveToFront(e)
		pub = e.Value.(lruEntry).pub
	}
	w.lruMu.Unlock()
	if pub == nil {
		cert, err := repro.ParseCert(w.prefix[q.key][:frame.CertSize], w.ids[q.key])
		if err != nil {
			return err
		}
		if pub, err = shard.ExtractPublicKey(cert, w.caPub); err != nil {
			return err
		}
		pub.Precompute()
		w.lruMu.Lock()
		if _, ok := w.lruAt[q.key]; !ok {
			w.lruAt[q.key] = w.lru.PushFront(lruEntry{q.key, pub})
			if w.lru.Len() > fleetCacheCap {
				old := w.lru.Remove(w.lru.Back()).(lruEntry)
				delete(w.lruAt, old.node)
			}
		}
		w.lruMu.Unlock()
	}
	j := int(q.key)*fleetDigests + int(q.item)
	sig := w.pGood[j]
	if q.bad {
		sig = w.pBad[j]
	}
	ok := false
	if sig != nil {
		var err error
		if ok, err = shard.VerifyKey(pub, w.digests[q.item], sig); err != nil {
			return err
		}
	}
	if ok == q.bad {
		return fmt.Errorf("%w: replayed verdict %v for corrupt=%v", errWrongAnswer, ok, q.bad)
	}
	return nil
}

func (w *certFleet) verifySamples() error { return nil }

// sign-ecdh: the private-key path, half signatures and half key
// agreements against a pool of peers.

const (
	signPeers       = 64
	signDigests     = 256
	signSampleEvery = 16
)

type signECDH struct {
	counter
	server   *repro.PrivateKey
	peerKeys [][]byte
	peerPubs []*repro.PublicKey
	secrets  [][]byte
	digests  [][]byte

	mu      sync.Mutex
	sampled []signedDigest
}

type signedDigest struct {
	item int32
	sig  []byte
}

func newSignECDH(seed int64, server *repro.PrivateKey) (traffic, error) {
	w := &signECDH{server: server}
	kr, r := keyReader(seed, streamKeys), seededRand(seed, streamDigests)
	for range signPeers {
		peer, err := repro.GenerateKey(kr)
		if err != nil {
			return nil, err
		}
		secret, err := peer.SharedSecret(server.PublicKey())
		if err != nil {
			return nil, err
		}
		w.peerKeys = append(w.peerKeys, peer.PublicKey().BytesCompressed())
		w.peerPubs = append(w.peerPubs, peer.PublicKey())
		w.secrets = append(w.secrets, secret)
	}
	for range signDigests {
		w.digests = append(w.digests, randomDigest(r))
	}
	return w, nil
}

func (w *signECDH) draw(r *mrand.Rand) req {
	if r.IntN(2) == 0 {
		return req{typ: frame.TSign, item: int32(r.IntN(signDigests)), sample: r.IntN(signSampleEvery) == 0}
	}
	return req{typ: frame.TECDH, key: int32(r.IntN(signPeers))}
}

func (w *signECDH) warmSet() []req {
	return []req{{typ: frame.TSign, sample: true}, {typ: frame.TECDH}}
}

func (w *signECDH) finish() error { return w.verifySamples() }

func (w *signECDH) encode(q req, segs [][]byte) (byte, [][]byte) {
	if q.typ == frame.TSign {
		return frame.TSign, append(segs, w.digests[q.item])
	}
	return frame.TECDH, append(segs, w.peerKeys[q.key])
}

func (w *signECDH) check(q req, payload []byte) error {
	if q.typ == frame.TSign {
		if len(payload) != frame.SigSize {
			return fmt.Errorf("%w: %d-byte signature", errWrongAnswer, len(payload))
		}
		if q.sample {
			w.mu.Lock()
			w.sampled = append(w.sampled, signedDigest{q.item, append([]byte(nil), payload...)})
			w.mu.Unlock()
		}
		return nil
	}
	w.secretChecks.Add(1)
	if !bytes.Equal(payload, w.secrets[q.key]) {
		return fmt.Errorf("%w: ECDH secret mismatch for peer %d", errWrongAnswer, q.key)
	}
	return nil
}

// verifySamples checks the sampled server signatures against the
// server's public key.
func (w *signECDH) verifySamples() error {
	w.mu.Lock()
	sampled := w.sampled
	w.sampled = nil
	w.mu.Unlock()
	pub := w.server.PublicKey()
	for _, s := range sampled {
		sig, err := repro.ParseSignature(s.sig)
		if err != nil || !pub.Verify(w.digests[s.item], sig) {
			return fmt.Errorf("%w: server signature over digest %d failed local verification", errWrongAnswer, s.item)
		}
		w.sigChecks.Add(1)
	}
	return nil
}

func (w *signECDH) replay(q req, shard *repro.BatchEngine) error {
	if q.typ == frame.TSign {
		_, err := shard.Sign(w.server, w.digests[q.item], rand.Reader)
		return err
	}
	secret, err := shard.SharedSecretKey(w.server, w.peerPubs[q.key])
	if err != nil {
		return err
	}
	if !bytes.Equal(secret, w.secrets[q.key]) {
		return fmt.Errorf("%w: replayed ECDH secret mismatch", errWrongAnswer)
	}
	return nil
}

// phase is one stretch of seeded load.
type phase struct {
	name string
	open bool          // open loop on an arrival schedule, else closed loop
	rate float64       // open loop: mean arrivals per second
	dur  time.Duration // how long requests are issued
	due  []int64       // open loop: due time of request i, ns from the phase start
	reqs []req         // open loop: request i; closed loop: a pool used cyclically
}

// tick is the open loop's arrival granularity: the host's timer wakes
// no finer than about a millisecond, so arrivals are quantised to it.
const tick = time.Millisecond

// closedPool is how many distinct requests a closed-loop phase cycles.
const closedPool = 8192

// openPhase draws Poisson arrivals at rate for d, quantised up to the
// next tick, with one request each.
func openPhase(name string, t traffic, seed int64, idx uint64, rate float64, d time.Duration) *phase {
	r := seededRand(seed, streamPhase+idx)
	p := &phase{name: name, open: true, rate: rate, dur: d}
	for at := 0.0; ; {
		at += r.ExpFloat64() / rate * 1e9
		if at >= float64(d) {
			break
		}
		due := int64(math.Ceil(at/float64(tick))) * int64(tick)
		p.due = append(p.due, due)
		p.reqs = append(p.reqs, t.draw(r))
	}
	return p
}

func closedPhase(name string, t traffic, seed int64, idx uint64, d time.Duration) *phase {
	r := seededRand(seed, streamPhase+idx)
	p := &phase{name: name, dur: d}
	for range closedPool {
		p.reqs = append(p.reqs, t.draw(r))
	}
	return p
}

// slice is the k-th of n equal slices of p. An open loop's slice holds
// the arrivals due in it, shifted to start at zero (the last slice also
// takes any arrival due exactly at the end); a closed loop's slice
// cycles the pool from where the previous slices stopped, after sent
// requests.
func (p *phase) slice(k, n, sent int) *phase {
	d := p.dur / time.Duration(n)
	s := &phase{name: p.name, open: p.open, rate: p.rate, dur: d}
	if !p.open {
		j := sent % len(p.reqs)
		s.reqs = append(append(s.reqs, p.reqs[j:]...), p.reqs[:j]...)
		return s
	}
	lo, hi := int64(k)*int64(d), int64(k+1)*int64(d)
	for i, due := range p.due {
		if due >= lo && (due < hi || k == n-1) {
			s.due = append(s.due, due-lo)
			s.reqs = append(s.reqs, p.reqs[i])
		}
	}
	return s
}

// streamDigest hashes the request streams of a run's phases: the
// arrival schedule and every request drawn, so two runs with the same
// seed send byte-identical streams exactly when the digests agree.
func streamDigest(ps []*phase) string {
	h := sha256.New()
	var b []byte
	for _, p := range ps {
		b = append(b[:0], p.name...)
		b = binary.BigEndian.AppendUint64(b, uint64(p.dur))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.rate))
		for _, d := range p.due {
			b = binary.BigEndian.AppendUint64(b, uint64(d))
		}
		for _, q := range p.reqs {
			b = append(b, q.typ)
			b = binary.BigEndian.AppendUint32(b, uint32(q.key))
			b = binary.BigEndian.AppendUint32(b, uint32(q.item))
			b = append(b, boolByte(q.bad), boolByte(q.sample))
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// parallel runs f(0..n-1) on one goroutine per CPU and returns the
// first error.
func parallel(n int, f func(i int) error) error {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := f(i); err != nil {
					once.Do(func() { first = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
