package trace_test

import (
	"fmt"

	"tieredmem/internal/trace"
)

// ExampleRing shows the threshold-interrupt semantics the sampling
// hardware uses.
func ExampleRing() {
	var drained int
	r := trace.NewRing(8, 3, func(ring *trace.Ring) {
		drained += len(ring.Drain(nil))
	})
	for i := 0; i < 7; i++ {
		r.Push(trace.Sample{Now: int64(i)})
	}
	fmt.Printf("drained=%d pending=%d\n", drained, r.Len())
	// Output: drained=6 pending=1
}
