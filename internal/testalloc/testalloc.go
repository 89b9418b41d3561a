// Package testalloc counts heap allocations for the tests' allocation
// pins. Every pin measures through Count, which the root test
// TestAllocsPinsTakeOneRun enforces.
package testalloc

import (
	"runtime/debug"
	"testing"
)

// Count returns the heap allocations of one call of f, as a total:
// f makes all n calls a pin covers, and Count is
// testing.AllocsPerRun(1, f). AllocsPerRun divides its malloc total by
// the run count in integers, so AllocsPerRun(100, f) reads 0 for an f
// that allocates on every other call.
//
// AllocsPerRun reads the process-wide malloc count, so Count first
// hands the heap's free pages back to the operating system. Otherwise
// the runtime's background scavenger may still be releasing them while
// f runs, and the timer it sleeps on between rounds can grow a per-P
// timer heap: one 16-byte allocation, counted against f.
func Count(f func()) float64 {
	debug.FreeOSMemory()
	return testing.AllocsPerRun(1, f)
}

// Once is Count for an f that must run exactly once, such as a call
// that consumes what it measures or must open one block and no more:
// AllocsPerRun calls f once as a warm-up before the measured run, and
// Once makes that warm-up call a no-op.
func Once(f func()) float64 {
	warm := true
	return Count(func() {
		if warm {
			warm = false
			return
		}
		f()
	})
}
