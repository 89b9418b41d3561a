// Package pmu models a core's performance monitoring unit as the two
// aggregate counters TMP reads: LLC misses, which gate trace-based
// profiling, and STLB misses, which gate A-bit scanning (§III-A,
// §III-B4). Aggregate counts are the low-verbosity HWPC row of the
// paper's Table I.
//
// A real PMU time-multiplexes its registers when more events are
// programmed than it has; TMP programs two on a six-register core, so
// every event stays resident and each counter is an exact count.
package pmu

import "fmt"

// Event identifies a counted hardware event.
type Event int

// The events TMP reads: HWPC gating and Fig. 2 use both.
const (
	EvLLCMiss  Event = iota
	EvSTLBMiss       // misses past the last TLB level (page walks)
	numEvents
)

// String names the event; HWPC gate events export this name.
func (e Event) String() string {
	switch e {
	case EvLLCMiss:
		return "llc-miss"
	case EvSTLBMiss:
		return "stlb-miss"
	default:
		return fmt.Sprintf("event(%d)", int(e))
	}
}

// PMU is one core's counters, one per Event. The zero value counts
// from zero.
type PMU struct {
	counts [numEvents]uint64
}

// Add records n occurrences of an event.
func (p *PMU) Add(e Event, n uint64) { p.counts[e] += n }

// Raw returns an event's count.
func (p *PMU) Raw(e Event) uint64 { return p.counts[e] }
