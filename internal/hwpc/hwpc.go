// Package hwpc implements TMP's performance-counter activity monitor
// (§III-B4, first optimization): LLC-miss and TLB-miss counters are
// read continuously at near-zero cost, and the expensive profiling
// mechanisms are dynamically disabled when their event stream is quiet.
// The paper's rule: track the maximum windowed event count seen so
// far; a profiling method is considered active while the current
// window's count is at least 20% of that maximum.
package hwpc

import (
	"fmt"

	"tieredmem/internal/cpu"
	"tieredmem/internal/fault"
	"tieredmem/internal/pmu"
	"tieredmem/internal/telemetry"
)

// Config parameterizes the monitor.
type Config struct {
	// Window is the virtual-ns sampling window for the counters.
	Window int64
	// Threshold is the fraction of the maximum windowed count below
	// which a profiling method is gated off (the paper uses 0.20).
	Threshold float64
	// ReadCost is the virtual-ns cost of one counter-read pass
	// (HWPCs are nearly free; this stays tiny).
	ReadCost int64
}

// DefaultConfig returns the paper's settings: 20% threshold, 100 ms
// windows.
func DefaultConfig() Config {
	return Config{Window: 100_000_000, Threshold: 0.20, ReadCost: 500}
}

// Toggleable is anything the monitor can gate on and off; both the
// ibs.Engine and the abit.Scanner satisfy it.
type Toggleable interface {
	Enable()
	Disable()
}

// gauge tracks one event stream's windowed activity.
type gauge struct {
	event    pmu.Event
	last     uint64 // machine-wide count at the previous window edge
	maxDelta uint64
	active   bool
	target   Toggleable
	// toggles counts on/off transitions applied to the target.
	toggles uint64
	// wraps counts windows whose read went backwards (counter
	// wraparound); resync marks the clean window after a wrap, which
	// re-baselines last without judging activity.
	wraps  uint64
	resync bool
}

// Monitor is the gating engine.
type Monitor struct {
	cfg     Config
	machine *cpu.Machine
	gauges  []*gauge
	next    int64
	// Reads counts counter-read passes; OverheadNS accumulates their
	// cost.
	Reads      uint64
	OverheadNS int64
	// Wraps counts gauge windows discarded because the counter read
	// went backwards (injected wraparound). Each wrap also forfeits
	// the following window to re-baselining.
	Wraps uint64
	// quarantined permanently stops window evaluation; the monitor
	// fails open (all targets enabled, no further gating).
	quarantined bool
	// faults, when non-nil, can corrupt counter reads.
	faults *fault.Plane

	// Telemetry (nil handles no-op when telemetry is off).
	tel         *telemetry.Tracer
	ctrReads    *telemetry.Counter
	ctrToggles  *telemetry.Counter
	ctrOverhead *telemetry.Counter
}

// SetTracer attaches the telemetry layer: every gate transition emits
// a KindGate event carrying the windowed count, the running maximum,
// and the threshold in basis points — the ≥20%-of-peak evidence behind
// each open/close decision. Record-only.
func (mo *Monitor) SetTracer(t *telemetry.Tracer) {
	mo.tel = t
	mo.ctrReads = t.Counter("hwpc/reads")
	mo.ctrToggles = t.Counter("hwpc/toggles")
	mo.ctrOverhead = t.Counter("hwpc/overhead_ns")
}

// New builds a monitor over a machine.
func New(cfg Config, m *cpu.Machine) (*Monitor, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("hwpc: window %d must be positive", cfg.Window)
	}
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("hwpc: threshold %v must be in [0,1]", cfg.Threshold)
	}
	return &Monitor{cfg: cfg, machine: m, next: cfg.Window}, nil
}

// Gate registers a profiling mechanism to be driven by an event: the
// paper supplements trace collection with the LLC-miss counter and
// A-bit profiling with the TLB-miss counter.
func (mo *Monitor) Gate(event pmu.Event, target Toggleable) {
	mo.gauges = append(mo.gauges, &gauge{event: event, target: target, active: true})
}

// machineCount sums an event's raw counts across cores.
func (mo *Monitor) machineCount(e pmu.Event) uint64 {
	var total uint64
	for _, c := range mo.machine.Cores() {
		total += c.PMU.Raw(e)
	}
	return total
}

// Due reports whether a window boundary has been reached.
func (mo *Monitor) Due(now int64) bool { return now >= mo.next }

// TickIfDue evaluates the gating rule at window boundaries, toggling
// registered targets. It returns the cost to charge the daemon core
// and whether a pass ran.
func (mo *Monitor) TickIfDue(now int64) (int64, bool) {
	if mo.quarantined || !mo.Due(now) {
		return 0, false
	}
	for mo.next <= now {
		mo.next += mo.cfg.Window
	}
	mo.Reads++
	readCost := mo.machine.SoftCost(mo.cfg.ReadCost)
	mo.OverheadNS += readCost

	for _, g := range mo.gauges {
		cur := mo.machineCount(g.event)
		if g.last > 0 && mo.faults.WrapHWPC() {
			// Injected wraparound: the counter overflowed between
			// window edges, so this read lands below the previous one.
			cur = g.last / 2
		}
		if cur < g.last {
			// The count went backwards — a wrap. The window's delta is
			// garbage: discard it without touching maxDelta or the
			// gate, and spend the next window re-baselining (the delta
			// from a wrapped baseline would be just as corrupt).
			g.wraps++
			mo.Wraps++
			g.last = cur
			g.resync = true
			continue
		}
		if g.resync {
			g.resync = false
			g.last = cur
			continue
		}
		delta := cur - g.last
		g.last = cur
		if delta > g.maxDelta {
			g.maxDelta = delta
		}
		wantActive := true
		if g.maxDelta > 0 {
			wantActive = float64(delta) >= mo.cfg.Threshold*float64(g.maxDelta)
		}
		if wantActive != g.active {
			g.active = wantActive
			g.toggles++
			mo.tel.EmitGate(now, g.event.String(), wantActive, delta, g.maxDelta,
				uint64(mo.cfg.Threshold*10000+0.5))
			if wantActive {
				g.target.Enable()
			} else {
				g.target.Disable()
			}
		}
	}
	if mo.tel.Enabled() {
		var toggles uint64
		for _, g := range mo.gauges {
			toggles += g.toggles
		}
		mo.ctrReads.Set(mo.Reads)
		mo.ctrToggles.Set(toggles)
		mo.ctrOverhead.Set(uint64(mo.OverheadNS))
	}
	return readCost, true
}

// SetFaultPlane attaches the fault-injection plane. nil (the default)
// injects nothing.
func (mo *Monitor) SetFaultPlane(p *fault.Plane) { mo.faults = p }

// FaultRate returns wrapped gauge windows over gauge windows read, for
// the profiler's quarantine arithmetic.
func (mo *Monitor) FaultRate() (failures, attempts uint64) {
	return mo.Wraps, mo.Reads * uint64(len(mo.gauges))
}

// Quarantine permanently stops the monitor: gating evidence from a
// wrap-prone counter is garbage, so the monitor fails open — every
// gated target is re-enabled (unless itself quarantined) and no
// further windows are evaluated or charged.
func (mo *Monitor) Quarantine() {
	mo.quarantined = true
	for _, g := range mo.gauges {
		if !g.active {
			g.active = true
			g.toggles++
		}
		g.target.Enable()
	}
}

// Quarantined reports whether the monitor is permanently off.
func (mo *Monitor) Quarantined() bool { return mo.quarantined }

// GaugeState describes one gauge for reporting.
type GaugeState struct {
	Event    pmu.Event
	Active   bool
	MaxDelta uint64
	Toggles  uint64
	Wraps    uint64
}

// States returns a snapshot of all gauges.
func (mo *Monitor) States() []GaugeState {
	out := make([]GaugeState, 0, len(mo.gauges))
	for _, g := range mo.gauges {
		out = append(out, GaugeState{Event: g.event, Active: g.active, MaxDelta: g.maxDelta, Toggles: g.toggles, Wraps: g.wraps})
	}
	return out
}
