package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one eccserve process, started with deployment flags only,
// so every tunable runs at its default.
type server struct {
	cmd     *exec.Cmd
	addr    string // frame protocol listener
	metrics string // /metrics listener
	shards  int
	batch   int
	window  time.Duration

	exited  chan struct{} // closed when the process has exited
	waitErr error         // the process's exit status, valid after exited

	mu  sync.Mutex
	log []string
}

var (
	listeningRE = regexp.MustCompile(`listening on (\S+) \((\d+) shards, batch (\d+), window (\S+)\)`)
	metricsRE   = regexp.MustCompile(`metrics on http://(\S+)/metrics`)
)

// startServer execs bin and waits until both of its listeners are up.
func startServer(bin, keyFile string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-key", keyFile)
	// The server must not outlive the benchmark, even one killed
	// mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start eccserve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	ready := make(chan struct{})
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.log = append(s.log, line)
			if m := listeningRE.FindStringSubmatch(line); m != nil {
				s.addr = m[1]
				s.shards, _ = strconv.Atoi(m[2])
				s.batch, _ = strconv.Atoi(m[3])
				s.window, _ = time.ParseDuration(m[4])
			}
			if m := metricsRE.FindStringSubmatch(line); m != nil {
				s.metrics = m[1]
			}
			up := s.addr != "" && s.metrics != ""
			s.mu.Unlock()
			if up && !signalled {
				signalled = true
				close(ready)
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	go func() {
		<-logDone // Wait must not close the pipe under the reader
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	select {
	case <-ready:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("eccserve exited during start-up (%v):\n%s", s.waitErr, s.logText())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("eccserve did not come up within 60s:\n%s", s.logText())
	}
}

func (s *server) logText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.log, "\n")
}

// alive reports an unexpected exit as an error.
func (s *server) alive() error {
	select {
	case <-s.exited:
		return fmt.Errorf("eccserve exited unexpectedly (%v):\n%s", s.waitErr, s.logText())
	default:
		return nil
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// stop drains the server with SIGTERM and requires a clean exit.
func (s *server) stop() error {
	if err := s.alive(); err != nil {
		return err
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.kill()
		return fmt.Errorf("eccserve did not drain within 20s:\n%s", s.logText())
	}
	if s.waitErr != nil || !strings.Contains(s.logText(), "drained, bye") {
		return fmt.Errorf("eccserve did not exit cleanly (%v):\n%s", s.waitErr, s.logText())
	}
	return nil
}

// prom is one scrape of /metrics: sample name with labels → value.
type prom map[string]float64

func (s *server) scrape() (prom, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + s.metrics + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	return parseProm(body)
}

func parseProm(body []byte) (prom, error) {
	p := prom{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed /metrics line %q", line)
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("malformed /metrics line %q", line)
		}
		p[string(line[:i])] = v
	}
	return p, nil
}

// delta is after − before for one sample.
func delta(before, after prom, name string) float64 { return after[name] - before[name] }

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 10 * time.Millisecond

// cpu is the server's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, from field 3 (state).
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS is the server's high-water resident set (VmHWM) in MiB.
func (s *server) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostTicks is the machine's CPU time so far in clock ticks, all of it
// and the part the hypervisor gave to other guests (steal).
func hostTicks() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("malformed /proc/stat: %w", err)
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
