// Package pmu models a performance monitoring unit: a fixed number of
// programmable counter registers, a larger event taxonomy, and
// perf-style time-division multiplexing when more events are requested
// than registers exist. Multiplexed counts are scaled by enabled-time,
// reproducing the verbosity loss the paper lists as the HWPC
// disadvantage in Table I.
package pmu

import (
	"fmt"
	"sort"
)

// Event identifies a countable hardware event.
type Event int

// The event taxonomy used by the simulator. Real PMUs expose hundreds
// of events; these are the ones the paper's TMP consumes.
const (
	EvRetiredLoads Event = iota
	EvRetiredStores
	EvL1Miss
	EvL2Miss
	EvLLCMiss
	EvDTLBMiss
	EvSTLBMiss // misses past the last TLB level (page walks)
	EvPageWalkCycles
	EvRetiredOps
	numEvents
)

// String names the event.
func (e Event) String() string {
	switch e {
	case EvRetiredLoads:
		return "retired-loads"
	case EvRetiredStores:
		return "retired-stores"
	case EvL1Miss:
		return "l1-miss"
	case EvL2Miss:
		return "l2-miss"
	case EvLLCMiss:
		return "llc-miss"
	case EvDTLBMiss:
		return "dtlb-miss"
	case EvSTLBMiss:
		return "stlb-miss"
	case EvPageWalkCycles:
		return "pagewalk-cycles"
	case EvRetiredOps:
		return "retired-ops"
	default:
		return fmt.Sprintf("event(%d)", int(e))
	}
}

// slot is one tracked event's bookkeeping.
type slot struct {
	event     Event
	raw       uint64 // increments observed while resident on a register
	enabled   int64  // virtual ns the event held a register
	requested int64  // virtual ns since the event was programmed
}

// PMU is one core's monitoring unit.
type PMU struct {
	registers int
	slots     []slot
	index     [numEvents]int // event -> slot position, -1 if untracked
	rrStart   int            // round-robin rotation cursor
	last      int64          // virtual time of the last Tick
	quantum   int64          // rotation quantum in virtual ns
}

// New builds a PMU with the given number of counter registers (a
// Zen-2-class core has 6) and a multiplexing quantum in virtual ns
// (perf uses ~1 ms by default).
func New(registers int, quantum int64) *PMU {
	if registers <= 0 {
		panic("pmu: register count must be positive")
	}
	if quantum <= 0 {
		quantum = 1_000_000
	}
	p := &PMU{registers: registers, quantum: quantum}
	for i := range p.index {
		p.index[i] = -1
	}
	return p
}

// Track programs an event; tracking more events than registers engages
// multiplexing. Tracking an already-tracked event is a no-op.
func (p *PMU) Track(e Event) {
	if p.index[e] >= 0 {
		return
	}
	p.index[e] = len(p.slots)
	p.slots = append(p.slots, slot{event: e})
}

// Multiplexed reports whether more events are programmed than
// registers exist.
func (p *PMU) Multiplexed() bool { return len(p.slots) > p.registers }

// resident reports whether the slot currently holds a register under
// the round-robin rotation.
func (p *PMU) resident(slotIdx int) bool {
	n := len(p.slots)
	if n <= p.registers {
		return true
	}
	off := (slotIdx - p.rrStart + n) % n
	return off < p.registers
}

// Tick advances multiplexing bookkeeping to virtual time now and,
// when multiplexed, rotates the register assignment once per quantum
// boundary crossed since the last tick.
func (p *PMU) Tick(now int64) {
	if len(p.slots) == 0 {
		p.last = now
		return
	}
	elapsed := now - p.last
	if elapsed <= 0 {
		return
	}
	for i := range p.slots {
		p.slots[i].requested += elapsed
		if p.resident(i) {
			p.slots[i].enabled += elapsed
		}
	}
	if p.Multiplexed() {
		crossed := now/p.quantum - p.last/p.quantum
		p.rrStart = int((int64(p.rrStart) + crossed) % int64(len(p.slots)))
	}
	p.last = now
}

// Add records increments for an event; lost when the event is not
// resident on a register (that is the multiplexing cost).
func (p *PMU) Add(e Event, n uint64) {
	idx := p.index[e]
	if idx < 0 {
		return
	}
	if p.resident(idx) {
		p.slots[idx].raw += n
	}
}

// Count returns the perf-style scaled estimate for an event:
// raw * requested/enabled. The second result is the fraction of time
// the event actually held a register (1.0 when not multiplexed).
func (p *PMU) Count(e Event) (uint64, float64) {
	idx := p.index[e]
	if idx < 0 {
		return 0, 0
	}
	s := p.slots[idx]
	if s.enabled == 0 {
		if s.requested == 0 {
			return s.raw, 1
		}
		return 0, 0
	}
	frac := float64(s.enabled) / float64(s.requested)
	scaled := uint64(float64(s.raw) / frac)
	return scaled, frac
}

// Raw returns the unscaled register value for an event.
func (p *PMU) Raw(e Event) uint64 {
	idx := p.index[e]
	if idx < 0 {
		return 0
	}
	return p.slots[idx].raw
}

// Tracked returns the programmed events in a stable order.
func (p *PMU) Tracked() []Event {
	out := make([]Event, 0, len(p.slots))
	for _, s := range p.slots {
		out = append(out, s.event)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
