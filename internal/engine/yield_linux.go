//go:build linux

package engine

import "syscall"

// osYield lets other threads queued on this CPU run (sched_yield). A
// collecting worker calls it after a yield that brought nothing:
// runtime.Gosched keeps the thread on its CPU, and a submitter whose
// thread the kernel queued there (a woken thread often lands on its
// waker's CPU) would otherwise wait out the whole collect and the
// kernel after it, so a burst it was creating would arrive one request
// per batch.
func osYield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
