//go:build race

package main

// raceEnabled reports that this binary was built with the race
// detector, whose instrumentation adds allocations of its own — the
// zero-alloc guards skip themselves under it.
const raceEnabled = true
