package engine

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/ecqv"
	"repro/internal/gf233"
)

// extractFixture builds n valid implicit certificates under one CA and
// returns the staged kernel inputs (points, CA key, digests) together
// with the one-shot extractions the kernel must reproduce.
func extractFixture(t testing.TB, seed int64, n int) (ca ec.Affine, pts []ec.Affine, digests [][]byte, want []ec.Affine) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	caKey, err := core.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	auth := ecqv.NewCA(caKey)
	ca = auth.Public()
	pts = make([]ec.Affine, n)
	digests = make([][]byte, n)
	want = make([]ec.Affine, n)
	for i := 0; i < n; i++ {
		req, err := ecqv.NewRequest(rnd)
		if err != nil {
			t.Fatal(err)
		}
		cert, _, err := auth.Issue(req.Public, []byte("node-"+strconv.Itoa(i)), rnd)
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = cert.Point
		d := cert.Digest(ca)
		digests[i] = append([]byte(nil), d[:]...)
		want[i], err = ecqv.Extract(cert, ca)
		if err != nil {
			t.Fatal(err)
		}
	}
	return ca, pts, digests, want
}

// corruptExtractBatch plants hostile certificate points at fixed
// indices: the three small-order torsion points (on the curve, outside
// the prime subgroup), an off-curve point, and infinity. Every planted
// index must fail with ErrExtractPoint; the k·P ladder must never see
// any of them.
func corruptExtractBatch(pts []ec.Affine) map[int]bool {
	g := ec.Gen()
	offCurve := ec.Affine{X: g.X, Y: gf233.Add(g.Y, gf233.One)}
	planted := map[int]bool{
		3:  true,
		7:  true,
		11: true,
		17: true,
		23: true,
	}
	pts[3] = ec.Affine{X: gf233.Zero, Y: gf233.One} // order 2
	pts[7] = ec.Affine{X: gf233.One, Y: gf233.Zero} // order 4
	pts[11] = ec.Affine{X: gf233.One, Y: gf233.One} // order 4
	pts[17] = offCurve
	pts[23] = ec.Infinity
	return planted
}

// TestBatchExtractMatchesOneShot runs a mixed batch — valid
// certificates interleaved with small-order, off-curve and infinity
// points injected below the parsing layer — through the batched
// extraction kernel and checks every outcome against the one-shot
// extractor: identical points for valid entries, individual
// ErrExtractPoint failures for hostile ones, no cross-contamination.
func TestBatchExtractMatchesOneShot(t *testing.T) {
	ca, pts, digests, want := extractFixture(t, 80, 32)
	planted := corruptExtractBatch(pts)
	out := make([]ExtractResult, len(pts))
	BatchExtract(pts, ca, digests, out)
	for i := range out {
		if planted[i] {
			if out[i].Err != ErrExtractPoint {
				t.Fatalf("hostile entry %d: got err %v, want ErrExtractPoint", i, out[i].Err)
			}
			if !out[i].Pub.Inf {
				t.Fatalf("hostile entry %d returned a point", i)
			}
			continue
		}
		if out[i].Err != nil {
			t.Fatalf("valid entry %d failed: %v", i, out[i].Err)
		}
		if !out[i].Pub.Equal(want[i]) {
			t.Fatalf("entry %d diverged from one-shot extraction", i)
		}
	}
}

// TestBatchExtractBackends pins the batched kernel against the
// one-shot extractor under every supported field backend.
func TestBatchExtractBackends(t *testing.T) {
	ca, pts, digests, want := extractFixture(t, 81, 8)
	out := make([]ExtractResult, len(pts))
	prev := gf233.CurrentBackend()
	defer gf233.SetBackend(prev)
	for _, bk := range []gf233.Backend{gf233.Backend64, gf233.BackendCLMUL} {
		if !gf233.Supported(bk) {
			continue
		}
		gf233.SetBackend(bk)
		BatchExtract(pts, ca, digests, out)
		for i := range out {
			if out[i].Err != nil || !out[i].Pub.Equal(want[i]) {
				t.Fatalf("backend %v entry %d diverged (err %v)", bk, i, out[i].Err)
			}
		}
	}
}

// TestEngineExtract covers the per-request Engine surface: agreement
// with the one-shot extractor, per-request rejection of a small-order
// point, and ErrEngineClosed after Close.
func TestEngineExtract(t *testing.T) {
	ca, pts, digests, want := extractFixture(t, 82, 4)
	e := New(Config{MaxBatch: 8, Workers: 2})
	for i := range pts {
		got, err := e.Extract(pts[i], ca, digests[i])
		if err != nil {
			t.Fatalf("Extract %d: %v", i, err)
		}
		if !got.Equal(want[i]) {
			t.Fatalf("Extract %d diverged from one-shot extraction", i)
		}
	}
	if _, err := e.Extract(ec.Affine{X: gf233.Zero, Y: gf233.One}, ca, digests[0]); err != ErrExtractPoint {
		t.Fatalf("small-order point: got %v, want ErrExtractPoint", err)
	}
	e.Close()
	if _, err := e.Extract(pts[0], ca, digests[0]); err != ErrEngineClosed {
		t.Fatalf("closed engine: got %v, want ErrEngineClosed", err)
	}
}

// TestZeroAllocBatchExtract pins steady-state batched extraction at
// zero allocations per batch: the staging slices, the multi-point
// ladder scratch and the result slots are all pooled.
func TestZeroAllocBatchExtract(t *testing.T) {
	skipIfRace(t)
	ca, pts, digests, _ := extractFixture(t, 83, 32)
	out := make([]ExtractResult, len(pts))
	core.Warm()
	BatchExtract(pts, ca, digests, out) // reach steady state
	if avg := testing.AllocsPerRun(20, func() {
		BatchExtract(pts, ca, digests, out)
	}); avg != 0 {
		t.Fatalf("BatchExtract allocates %v per batch, want 0", avg)
	}
}

// TestConcurrentBatchExtract runs the batched extraction kernel from
// 32 goroutines over shared read-only inputs — a mixed batch with
// hostile entries planted below the parsing layer — while the field
// backend cycles through all three implementations mid-flight. Each
// goroutine owns its result slice; outcomes must match the one-shot
// extractor on every entry, every iteration, under every backend.
func TestConcurrentBatchExtract(t *testing.T) {
	ca, pts, digests, want := extractFixture(t, 84, 32)
	planted := corruptExtractBatch(pts)

	stop := make(chan struct{})
	var togglers sync.WaitGroup
	togglers.Add(1)
	go func() {
		defer togglers.Done()
		prev := gf233.CurrentBackend()
		defer gf233.SetBackend(prev)
		cycle := []gf233.Backend{gf233.Backend64, gf233.BackendCLMUL}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			gf233.SetBackend(cycle[i%len(cycle)])
		}
	}()

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]ExtractResult, len(pts))
			for j := 0; j < 6; j++ {
				BatchExtract(pts, ca, digests, out)
				for i := range out {
					if planted[i] {
						if out[i].Err != ErrExtractPoint {
							errs <- "hostile certificate survived the kernel under concurrency"
							return
						}
						continue
					}
					if out[i].Err != nil || !out[i].Pub.Equal(want[i]) {
						errs <- "BatchExtract diverged from the one-shot extractor under concurrency"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	togglers.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
