package engine

import (
	"crypto/sha256"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ec"
)

// TestSubmitAfterCloseReturnsError pins the lifecycle contract every
// server drain path relies on: once Close returns, every submit path
// fails with ErrEngineClosed instead of panicking on a closed channel,
// and Close itself is idempotent. (On the pre-fix engine this test
// dies with "send on closed channel".)
func TestSubmitAfterCloseReturnsError(t *testing.T) {
	priv := testKey(t, 20)
	e := New(Config{MaxBatch: 4, Workers: 1, SkipWarm: true})
	e.Close()
	e.Close() // idempotent

	g := ec.Gen()
	d := sha256.Sum256([]byte("after close"))
	if _, err := e.ScalarMult(big.NewInt(3), g); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("ScalarMult after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := e.SharedSecret(priv, priv.Public); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("SharedSecret after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := e.SharedSecretAppend(nil, priv, priv.Public); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("SharedSecretAppend after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := e.Sign(priv, d[:], rand.New(rand.NewSource(21))); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Sign after Close: err = %v, want ErrEngineClosed", err)
	}
	var sig Signature
	if err := e.SignInto(&sig, priv, d[:], rand.New(rand.NewSource(22))); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("SignInto after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := e.Verify(priv.Public, nil, d[:], &Signature{R: big.NewInt(1), S: big.NewInt(1)}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Verify after Close: err = %v, want ErrEngineClosed", err)
	}
}

// TestWorkerPanicRecovery forces a real panic inside the batch kernel
// (a nil scalar blows up in the recoder) and checks the two halves of
// the containment contract: the submitter unblocks with an
// ErrBatchPanic-wrapped error instead of deadlocking on a
// never-signalled done channel, and the worker survives to process
// subsequent batches — the pool does not silently shrink. (On the
// pre-fix engine the first submit deadlocks forever.)
func TestWorkerPanicRecovery(t *testing.T) {
	e := New(Config{MaxBatch: 4, Workers: 1, SkipWarm: true})
	defer e.Close()
	g := ec.Gen()

	done := make(chan error, 1)
	go func() {
		_, err := e.ScalarMult(nil, g)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrBatchPanic) {
			t.Fatalf("panicking request: err = %v, want ErrBatchPanic", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("submitter deadlocked after worker panic")
	}

	// The single worker must still be alive and produce correct
	// results on a fresh scratch.
	k := big.NewInt(7)
	got, err := e.ScalarMult(k, g)
	if err != nil {
		t.Fatalf("post-panic ScalarMult: %v", err)
	}
	if !got.Equal(core.ScalarMult(k, g)) {
		t.Fatal("post-panic ScalarMult diverged")
	}
}

// TestBatchPanicFailsWholeBatch checks that innocent requests sharing
// a batch with a panicking one unblock with an error rather than
// deadlocking: a single worker, a poisoned request and several good
// ones submitted while the worker is busy, so they coalesce.
func TestBatchPanicFailsWholeBatch(t *testing.T) {
	e := New(Config{MaxBatch: 8, Workers: 1, SkipWarm: true})
	defer e.Close()
	g := ec.Gen()

	// Occupy the worker so the next submissions queue up together.
	block := make(chan error, 1)
	go func() {
		_, err := e.ScalarMult(big.NewInt(11), g)
		block <- err
	}()
	<-block

	const good = 4
	var wg sync.WaitGroup
	errs := make(chan error, good+1)
	wg.Add(good + 1)
	go func() {
		defer wg.Done()
		_, err := e.ScalarMult(nil, g)
		errs <- err
	}()
	for i := 0; i < good; i++ {
		go func(i int) {
			defer wg.Done()
			_, err := e.ScalarMult(big.NewInt(int64(i+2)), g)
			errs <- err
		}(i)
	}
	fin := make(chan struct{})
	go func() { wg.Wait(); close(fin) }()
	select {
	case <-fin:
	case <-time.After(10 * time.Second):
		t.Fatal("requests deadlocked after batch panic")
	}
	close(errs)
	sawPanic := false
	for err := range errs {
		if errors.Is(err, ErrBatchPanic) {
			sawPanic = true
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if !sawPanic {
		t.Fatal("no request reported ErrBatchPanic")
	}
}

// TestConfigFillClamp pins the Config sanitation: absurd values clamp
// into range instead of overflowing the Queue product into a negative
// channel capacity. (On the pre-fix engine the New call below panics
// in make.)
func TestConfigFillClamp(t *testing.T) {
	cases := []struct {
		in   Config
		want Config
	}{
		{Config{}, Config{MaxBatch: DefaultMaxBatch, Workers: 0, Queue: 0}}, // workers/queue host-dependent
		{Config{MaxBatch: math.MaxInt, Workers: math.MaxInt, Queue: math.MaxInt},
			Config{MaxBatch: MaxBatchLimit, Workers: WorkersLimit, Queue: QueueLimit}},
		{Config{MaxBatch: math.MaxInt / 2, Workers: 4},
			Config{MaxBatch: MaxBatchLimit, Workers: 4, Queue: QueueLimit}},
		{Config{MaxBatch: -5, Workers: -5, Queue: -5, BatchWindow: -time.Second},
			Config{MaxBatch: DefaultMaxBatch, Workers: 0, Queue: 0}},
		{Config{MaxBatch: 16, Workers: 2},
			Config{MaxBatch: 16, Workers: 2, Queue: 64}},
	}
	for i, c := range cases {
		c.in.fill()
		if c.in.MaxBatch != c.want.MaxBatch {
			t.Fatalf("case %d: MaxBatch = %d, want %d", i, c.in.MaxBatch, c.want.MaxBatch)
		}
		if c.want.Workers != 0 && c.in.Workers != c.want.Workers {
			t.Fatalf("case %d: Workers = %d, want %d", i, c.in.Workers, c.want.Workers)
		}
		if c.in.Workers <= 0 || c.in.Workers > WorkersLimit {
			t.Fatalf("case %d: Workers = %d out of range", i, c.in.Workers)
		}
		if c.want.Queue != 0 && c.in.Queue != c.want.Queue {
			t.Fatalf("case %d: Queue = %d, want %d", i, c.in.Queue, c.want.Queue)
		}
		if c.in.Queue <= 0 || c.in.Queue > QueueLimit {
			t.Fatalf("case %d: Queue = %d out of range", i, c.in.Queue)
		}
		if c.in.BatchWindow < 0 {
			t.Fatalf("case %d: BatchWindow = %v negative", i, c.in.BatchWindow)
		}
	}

	// End to end: an engine constructed from hostile knobs must come up
	// and work. Workers is kept small so the test does not spawn 4096
	// goroutines.
	e := New(Config{MaxBatch: math.MaxInt / 2, Workers: 2, SkipWarm: true})
	defer e.Close()
	g := ec.Gen()
	got, err := e.ScalarMult(big.NewInt(5), g)
	if err != nil || !got.Equal(core.ScalarMult(big.NewInt(5), g)) {
		t.Fatalf("clamped engine diverged: %v", err)
	}
}

// TestBatchWindowFormsBatches checks the collect: with a window
// configured and a single worker, concurrent submitters coalesce into
// fewer batches than requests (observed through OnBatch), and a lone
// request still completes within a bounded wait rather than hanging
// for a full batch.
func TestBatchWindowFormsBatches(t *testing.T) {
	var batches, ops atomic.Int64
	e := New(Config{
		MaxBatch:    8,
		Workers:     1,
		BatchWindow: 50 * time.Millisecond,
		SkipWarm:    true,
		OnBatch: func(n int) {
			batches.Add(1)
			ops.Add(int64(n))
		},
	})
	defer e.Close()
	g := ec.Gen()

	// A lone request: must complete once the collect goes quiet, not
	// wait for a full batch that will never form.
	start := time.Now()
	if _, err := e.ScalarMult(big.NewInt(3), g); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("lone request took %v", elapsed)
	}

	// Several concurrent submitters: fewer batches than ops means the
	// collect coalesced them.
	const G = 6
	var wg sync.WaitGroup
	before := batches.Load()
	opsBefore := ops.Load()
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.ScalarMult(big.NewInt(int64(i+2)), g); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	gotBatches := batches.Load() - before
	gotOps := ops.Load() - opsBefore
	if gotOps != G {
		t.Fatalf("OnBatch observed %d ops, want %d", gotOps, G)
	}
	if gotBatches >= G {
		t.Fatalf("window formed no batches: %d batches for %d ops", gotBatches, gotOps)
	}
}

// TestBatchWindowLoneRequest pins the light-load half of the collect:
// a request with nothing else in flight runs once the collect has gone
// quiet, not after the window. The window is 10 s, so an engine that
// waited it out fails by an order of magnitude, in both the
// synchronous and the callback form.
func TestBatchWindowLoneRequest(t *testing.T) {
	e := New(Config{MaxBatch: 8, Workers: 1, BatchWindow: 10 * time.Second})
	defer e.Close()
	priv := testKey(t, 93)
	digest := sha256.Sum256([]byte("lone"))
	rng := rand.New(rand.NewSource(94))
	for round := 0; round < 3; round++ {
		start := time.Now()
		if _, err := e.Sign(priv, digest[:], rng); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("round %d: lone Sign took %v under a 10s window", round, el)
		}

		done := make(chan error, 1)
		start = time.Now()
		if err := e.SharedSecretAsync(priv, priv.Public, func(_ []byte, err error) { done <- err }); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("round %d: lone SharedSecretAsync took %v under a 10s window", round, el)
		}
	}
}

// TestBatchWindowBoundsCollect pins the collect's clock bound. Four
// submitters stay ready to run, each spending 4 ms of CPU before every
// submission, so while they outnumber the Ps a yield of the worker
// keeps bringing requests. Filling MaxBatch 1024 that way takes
// seconds; the 5 ms window must close batches long before, so OnBatch
// keeps firing while the submitters run, and every submitted request
// completes.
func TestBatchWindowBoundsCollect(t *testing.T) {
	var batches atomic.Int64
	e := New(Config{MaxBatch: 1024, Workers: 1, BatchWindow: 5 * time.Millisecond,
		OnBatch: func(int) { batches.Add(1) }})
	defer e.Close()
	priv := testKey(t, 95)

	var submitted, completed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for spin := time.Now(); time.Since(spin) < 4*time.Millisecond; {
				}
				if err := e.SharedSecretAsync(priv, priv.Public, func(_ []byte, err error) {
					if err != nil {
						t.Error(err)
					}
					completed.Add(1)
				}); err != nil {
					t.Error(err)
					return
				}
				submitted.Add(1)
				runtime.Gosched()
			}
		}()
	}

	const want = 5
	for deadline := time.Now().Add(time.Second); batches.Load() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	e.Close() // completes every queued request
	if n := batches.Load(); n < want {
		t.Fatalf("%d batches closed in 1 s of continuous submission, want >= %d: the window does not bound the collect", n, want)
	}
	if s, c := submitted.Load(), completed.Load(); s != c {
		t.Fatalf("%d requests submitted, %d completed", s, c)
	}
}

// TestBatchWindowQuietGapSpansPs pins the quiet gap: requests that
// arrive closer together than the gap share a batch even though the
// worker's own yields come back empty, as they do when the submitter
// runs on another P. Each round the test goroutine submits one request
// and waits for it, so the worker runs on its P, while a second
// goroutine, spinning on the other P, submits seven more 5 µs apart.
// The median of 21 rounds must form at most 2 batches. A collect that
// closed on the first empty yield forms about 3 a round outside the
// race detector: the first request, then whatever queued while each
// batch ran.
func TestBatchWindowQuietGapSpansPs(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the second submitter needs a P of its own")
	}
	var batches atomic.Int64
	e := New(Config{MaxBatch: 8, Workers: 1, BatchWindow: time.Second,
		OnBatch: func(int) { batches.Add(1) }})
	defer e.Close()
	priv := testKey(t, 97)
	counts := make([]int, 21)
	for round := range counts {
		before := batches.Load()
		var running, start atomic.Bool
		var wg sync.WaitGroup
		wg.Add(7)
		done := func([]byte, error) { wg.Done() }
		go func() {
			running.Store(true)
			for !start.Load() {
			}
			for i := 0; i < 7; i++ {
				for spin := time.Now(); time.Since(spin) < 5*time.Microsecond; {
				}
				if err := e.SharedSecretAsync(priv, priv.Public, done); err != nil {
					t.Error(err)
					wg.Done()
				}
			}
		}()
		for !running.Load() {
			runtime.Gosched()
		}
		start.Store(true)
		if _, err := e.SharedSecret(priv, priv.Public); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		counts[round] = int(batches.Load() - before)
	}
	slices.Sort(counts)
	if med := counts[len(counts)/2]; med > 2 {
		t.Fatalf("median %d batches for 8 requests 5µs apart (sorted rounds %v), want <= 2", med, counts)
	}
}

// TestOnBatchObserverCounts checks the observer sees every request
// exactly once across a mixed workload.
func TestOnBatchObserverCounts(t *testing.T) {
	var ops atomic.Int64
	e := New(Config{MaxBatch: 4, Workers: 2, SkipWarm: true,
		OnBatch: func(n int) { ops.Add(int64(n)) }})
	priv := testKey(t, 23)
	g := ec.Gen()
	const N = 20
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.ScalarMult(big.NewInt(int64(i+1)), g); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if _, err := e.SharedSecret(priv, priv.Public); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if got := ops.Load(); got != N+1 {
		t.Fatalf("observer saw %d ops, want %d", got, N+1)
	}
}
