// Package fixture exercises the faultrand analyzer: the fault plane
// must be seeded from the run seed, never from the wall clock or a
// global rand draw — one nondeterministic seed and chaos runs stop
// being reproducible.
package fixture

import (
	"math/rand"
	"time"

	"tieredmem/internal/fault"
)

func wallClockSeed(spec fault.Spec) *fault.Plane {
	return fault.New(spec, time.Now().UnixNano()) // want `wall-clock time.Now flows into a fault-package call`
}

func elapsedSeed(spec fault.Spec, started time.Time) *fault.Plane {
	return fault.New(spec, int64(time.Since(started))) // want `wall-clock time.Since flows into a fault-package call`
}

func deadlineSeed(spec fault.Spec, deadline time.Time) *fault.Plane {
	return fault.New(spec, int64(time.Until(deadline))) // want `wall-clock time.Until flows into a fault-package call`
}

func globalRandSeed(spec fault.Spec) *fault.Plane {
	return fault.New(spec, rand.Int63()) // want `global rand.Int63 flows into a fault-package call`
}

func runSeedOK(spec fault.Spec, seed int64) *fault.Plane {
	// The sanctioned path: the run seed handed down from the config.
	return fault.New(spec, seed)
}

func localRandOK(spec fault.Spec, seed int64) *fault.Plane {
	// A seeded local generator is deterministic, so deriving a plane
	// seed from one is fine; only global draws are banned.
	r := rand.New(rand.NewSource(seed))
	return fault.New(spec, r.Int63())
}

func wallClockElsewhereOK(seed int64) int64 {
	// Wall-clock use away from fault-package calls is the wallclock
	// analyzer's business, not this one's.
	host := time.Now().UnixNano()
	return host ^ seed
}
