//go:build race

package koblitz

// raceEnabled reports that this binary was built with the race
// detector, whose instrumentation adds allocations of its own — the
// allocation guards skip themselves under it.
const raceEnabled = true
