// Package ext stands in for helper code outside internal/ — cmd/
// flag plumbing, scripts — where wall-clock reads and global rand are
// legal. The taint fixture imports it to prove the engine's facts
// travel: findings appear in the importing internal/ package, at the
// call sites that launder these results in.
package ext

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

// Stamp derives directly from the wall clock.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Indirect derives from the wall clock two hops away, through Stamp
// and a local variable.
func Indirect() int64 {
	v := Stamp()
	return v + 1
}

// Roll draws from the process-global rand source.
func Roll() int64 {
	return rand.Int63()
}

// Generic derives from the wall clock behind a type parameter, so its
// callers must instantiate it explicitly: ext.Generic[int]().
func Generic[T any]() int64 {
	return time.Now().UnixNano()
}

// Box is a generic type whose method reads the wall clock. A call
// through an instantiation, ext.Box[int]{}.Stamp(), names the
// instantiated method, while the taint fact sits on the generic one.
type Box[T any] struct{}

// Stamp derives directly from the wall clock.
func (Box[T]) Stamp() int64 {
	return time.Now().UnixNano()
}

// Draw draws from the process-global rand source through math/rand/v2's
// explicitly instantiated generic rand.N.
func Draw() int64 {
	return randv2.N[int64](1 << 40)
}

// Pure is untainted: no fact is exported for it, and feeding it into
// telemetry or fault calls is clean.
func Pure(x int64) int64 {
	return x + 1
}
