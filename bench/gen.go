package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/frame"
)

// grace bounds how long a phase waits for its last answers after it
// stops issuing requests; an answer later than that is a timeout.
const grace = 10 * time.Second

// wire is one pipelined client connection.
type wire struct {
	nc net.Conn
	fc *frame.Conn
}

func dial(addr string) (wire, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return wire{}, err
	}
	return wire{nc: nc, fc: frame.NewConn(nc)}, nil
}

// sleepUntil blocks until due ns after epoch. It sleeps in
// nanosleep(2), not time.Sleep: the Go runtime rounds timer waits below
// a millisecond up to one on Linux, which would make the open loop run
// late by about a tick; nanosleep wakes within a fraction of that.
func sleepUntil(epoch time.Time, due int64) {
	for {
		d := time.Duration(due) - time.Since(epoch)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// loadGen drives one server over a fixed set of connections. Request
// ids are unique across the whole run, so a stray answer from an
// earlier phase can never be taken for a current one.
type loadGen struct {
	conns  []wire
	nextID uint64
}

func (g *loadGen) close() {
	for _, w := range g.conns {
		w.nc.Close()
	}
}

// rec is the life of one request, in ns from its phase's start.
type rec struct {
	due  int64 // when it was due: its arrival tick, or its send time in a closed loop
	sent int64 // frame write started
	wend int64 // frame write returned
	recv int64 // answer read
	ok   bool  // answered TOK with the right content
}

// phaseRun is the outcome of one phase.
type phaseRun struct {
	p      *phase
	epoch  time.Time // the phase's zero
	recs   []rec     // open loop: indexed like p.due; closed loop: in no order
	failed int
	first  error // first wrong or refused answer
}

// fail counts a wrong or refused answer.
func (r *phaseRun) fail(err error) {
	if r.failed == 0 {
		r.first = err
	}
	r.failed++
}

// answer checks one answer frame against its request.
func answer(t traffic, q req, f frame.Frame) error {
	if f.Type != frame.TOK {
		return fmt.Errorf("%w: response type %#x to request type %#x", errWrongAnswer, f.Type, q.typ)
	}
	return t.check(q, f.Payload)
}

// open runs an open-loop phase: request i is due at p.due[i] on
// connection i mod len(conns). The writer sleeps to each due tick;
// answers are read by one goroutine per connection. A failed connection
// ends the run, since the rest of the schedule cannot be sent on it.
//
// A connection holds at most perConn requests unanswered, the closed
// loop's depth: a request due while its connection is full waits for an
// answer, and that wait counts in its latency, which runs from the due
// tick. Without the cap, a stall of the host (tens of milliseconds
// happen on a shared VM) lets the schedule pile up more requests than
// the server's in-flight cap, and the burst after it is shed.
func (g *loadGen) open(t traffic, p *phase) (*phaseRun, error) {
	n, nc := len(p.due), len(g.conns)
	run := &phaseRun{p: p, recs: make([]rec, n)}
	base := g.nextID
	g.nextID += uint64(n)
	run.epoch = time.Now()
	deadline := run.epoch.Add(p.dur + grace)

	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		werr    error
		done    = make(chan struct{}) // closed when the phase fails
		slots   = make([]chan struct{}, nc)
		fails   = make([]phaseRun, nc) // per reader, merged below
	)
	stop := func(err error) {
		errOnce.Do(func() { werr = err; close(done) })
		g.close() // unblocks every reader
	}
	for c := range g.conns {
		slots[c] = make(chan struct{}, perConn) // a semaphore: unanswered requests on c
		expect := n / nc
		if c < n%nc {
			expect++
		}
		g.conns[c].nc.SetReadDeadline(deadline)
		wg.Add(1)
		go func(c, expect int) {
			defer wg.Done()
			for range expect {
				f, err := g.conns[c].fc.Read()
				now := int64(time.Since(run.epoch))
				if err != nil {
					stop(fmt.Errorf("%s: read: %w", p.name, err))
					return
				}
				i := int(f.ID - base)
				if f.ID < base || i >= n || i%nc != c {
					stop(fmt.Errorf("%s: answer with unexpected id %d", p.name, f.ID))
					return
				}
				<-slots[c]
				r := &run.recs[i]
				r.recv = now
				if err := answer(t, p.reqs[i], f); err != nil {
					fails[c].fail(err)
				} else {
					r.ok = true
				}
			}
		}(c, expect)
	}

	segs := make([][]byte, 0, 8)
send:
	for i := range n {
		due := p.due[i]
		sleepUntil(run.epoch, due)
		select {
		case slots[i%nc] <- struct{}{}:
		case <-done:
			break send
		}
		typ, s := t.encode(p.reqs[i], segs[:0])
		r := &run.recs[i]
		r.due = due
		r.sent = int64(time.Since(run.epoch))
		if err := g.conns[i%nc].fc.Write(base+uint64(i), typ, s...); err != nil {
			stop(fmt.Errorf("%s: write: %w", p.name, err))
			break
		}
		r.wend = int64(time.Since(run.epoch))
	}
	wg.Wait()
	if werr != nil {
		return nil, werr
	}
	for _, f := range fails {
		if f.failed > 0 {
			if run.failed == 0 {
				run.first = f.first
			}
			run.failed += f.failed
		}
	}
	return run, nil
}

// closed runs a closed-loop phase: every connection keeps perConn
// requests in flight, sending the next as soon as an answer arrives.
// With limit > 0 it sends exactly the first limit requests of the pool
// (the set-up's warm set); otherwise it keeps sending for p.dur.
func (g *loadGen) closed(t traffic, p *phase, perConn, limit int) (*phaseRun, error) {
	nc := len(g.conns)
	run := &phaseRun{p: p}
	base := g.nextID
	run.epoch = time.Now()
	deadline := run.epoch.Add(p.dur + grace)
	if limit > 0 {
		deadline = run.epoch.Add(5 * time.Minute)
	}

	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		parts = make([]phaseRun, nc)
		errs  = make([]error, nc)
	)
	for c := range g.conns {
		g.conns[c].nc.SetReadDeadline(deadline)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			part, w := &parts[c], g.conns[c]
			inflight := make(map[uint64]rec, perConn)
			segs := make([][]byte, 0, 8)
			send := func() (bool, error) {
				i := next.Add(1) - 1
				if limit > 0 && i >= int64(limit) || limit == 0 && time.Since(run.epoch) >= p.dur {
					return false, nil
				}
				typ, s := t.encode(p.reqs[int(i)%len(p.reqs)], segs[:0])
				sent := int64(time.Since(run.epoch))
				if err := w.fc.Write(base+uint64(i), typ, s...); err != nil {
					return false, err
				}
				inflight[base+uint64(i)] = rec{due: sent, sent: sent, wend: int64(time.Since(run.epoch))}
				return true, nil
			}
			for range perConn {
				more, err := send()
				if err != nil {
					errs[c] = fmt.Errorf("%s: write: %w", p.name, err)
					w.nc.Close()
					return
				}
				if !more {
					break
				}
			}
			for len(inflight) > 0 {
				f, err := w.fc.Read()
				now := int64(time.Since(run.epoch))
				if err != nil {
					errs[c] = fmt.Errorf("%s: read: %w", p.name, err)
					return
				}
				r, ok := inflight[f.ID]
				if !ok {
					errs[c] = fmt.Errorf("%s: answer with unexpected id %d", p.name, f.ID)
					return
				}
				delete(inflight, f.ID)
				r.recv = now
				if err := answer(t, p.reqs[int(f.ID-base)%len(p.reqs)], f); err != nil {
					part.fail(err)
				} else {
					r.ok = true
				}
				part.recs = append(part.recs, r)
				if _, err := send(); err != nil {
					errs[c] = fmt.Errorf("%s: write: %w", p.name, err)
					w.nc.Close()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	g.nextID = base + uint64(next.Load())
	if err := errors.Join(errs...); err != nil {
		g.close()
		return nil, err
	}
	for _, part := range parts {
		run.recs = append(run.recs, part.recs...)
		if part.failed > 0 {
			if run.failed == 0 {
				run.first = part.first
			}
			run.failed += part.failed
		}
	}
	return run, nil
}
