//go:build !linux

package engine

// osYield does nothing here: threads queued on a collecting worker's
// CPU wait for the collect to end. See the Linux version.
func osYield() {}
