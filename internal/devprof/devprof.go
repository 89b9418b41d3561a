// Package devprof implements a NeoMem-style device-side hot-page
// tracker: bounded access counters that live on a CXL memory device
// and observe the *physical* traffic landing in the device's tiers,
// with zero host-side sampling cost (arXiv 2403.18702). It is TMP's
// fourth evidence source, alongside IBS/PEBS trace sampling, PTE A-bit
// scanning, and HWPC gating.
//
// The tracker's properties mirror the hardware it models:
//
//   - It sees only accesses served by device tiers (TierSpec.Device).
//     DRAM-resident pages are invisible to it — exactly the asymmetry
//     HM-Keeper exploits: the device profiles the pages that matter
//     for promotion, and the host mechanisms cover the fast tier.
//   - Counters are physical. A counter belongs to a frame, not a
//     logical page; when the host remaps a frame between flushes the
//     staged count credits whatever page owns the frame at flush time,
//     and counts whose frame was freed are dropped (Vanished).
//   - The counter table is bounded and direct-mapped (frame modulo
//     table size, tagged). A colliding frame whose slot is held by
//     another live count is dropped and counted (Collisions) — the
//     device cannot chase overflow chains at line rate.
//   - Observation costs the host nothing. The only host-visible cost
//     is the flush at epoch cut, which the simulator treats as free
//     DMA; ObserveRetire always returns 0 virtual ns.
//
// Failure modes are fault.Sites expressed through typed sentinels:
// devprof.overflow (ErrOverflow) loses the staged batch the way a
// wrapped hot-page queue does, devprof.stale (ErrStale) makes a flush
// deliver nothing while counts carry over. The profiler's quarantine
// judges the tracker by the same lost/attempts rule as the host
// mechanisms and permanently disables it past the threshold.
package devprof

import (
	"errors"
	"fmt"

	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/trace"
)

// Typed sentinels for the flush path: callers branch with errors.Is.
var (
	// ErrOverflow marks a flush that found the device's bounded
	// counter queue wrapped: the staged observations are lost.
	ErrOverflow = errors.New("devprof: device counter table overflowed")
	// ErrStale marks a flush that raced the device's aggregation
	// window: nothing is delivered now, the counts arrive next flush.
	ErrStale = errors.New("devprof: device flush returned stale data")
	// ErrNoDevice rejects building a tracker on a machine with no
	// device-profiled tier.
	ErrNoDevice = errors.New("devprof: no device-profiled tier")
)

// Config parameterizes the tracker.
type Config struct {
	// Slots is the counter-table size per device tier, in entries.
	// NeoMem's FPGA holds a few thousand hot-page entries; the table
	// is direct-mapped, so a working set larger than Slots degrades
	// by collision, not by failure.
	Slots int
}

// DefaultConfig matches the NeoMem prototype's scale.
func DefaultConfig() Config { return Config{Slots: 4096} }

// Stats exposes tracker counters.
type Stats struct {
	Observed   uint64 // device-tier memory accesses staged
	Folded     uint64 // observations delivered into page descriptors
	Collisions uint64 // observations dropped: slot held by another frame
	Vanished   uint64 // staged counts whose frame was freed before flush
	Flushes    uint64

	// Fault-plane injections (zero without a plane). FaultLost are
	// staged observations discarded by injected table overflows;
	// FaultLate are observations whose delivery an injected stale
	// read deferred to a later flush. The profiler's quarantine judges
	// the tracker by (FaultLost+FaultLate) / (Folded+FaultLost+FaultLate).
	FaultOverflows uint64
	FaultLost      uint64
	FaultStale     uint64
	FaultLate      uint64
}

// FaultRate returns the injected-loss fraction of the evidence stream.
func (s Stats) FaultRate() (lost, attempts uint64) {
	lost = s.FaultLost + s.FaultLate
	return lost, s.Folded + s.FaultLost + s.FaultLate
}

// slot is one direct-mapped device counter: the frame it currently
// tracks and the staged access count. count==0 means free; the tag is
// then meaningless and the next observed frame claims the slot.
type slot struct {
	pfn   mem.PFN
	count uint32
}

// Tracker is the device-side profiler bound to one machine's physical
// memory. It implements cpu.RetireObserver.
type Tracker struct {
	cfg  Config
	phys *mem.PhysMem

	// Per-device-tier direct-mapped counter tables (dense columns, in
	// tier order), plus the tier's base PFN for slot indexing.
	tierIDs []mem.TierID
	bases   []mem.PFN
	tables  [][]slot
	// device[t] reports whether tier t is device-profiled; sized to
	// the machine's tier count for a branch-free hot path.
	device []bool

	staged   uint64
	stats    Stats
	disabled bool
	// quarantined is the sticky disabled state; no Enable reverses it.
	quarantined bool

	// faults, when non-nil, can overflow the counter table and stale
	// out flushes.
	faults *fault.Plane

	// Telemetry (nil handles no-op when telemetry is off).
	tel         *telemetry.Tracer
	ctrObserved *telemetry.Counter
	ctrFolded   *telemetry.Counter
	ctrColl     *telemetry.Counter
	ctrVan      *telemetry.Counter
	ctrFlushes  *telemetry.Counter
	ctrLost     *telemetry.Counter
	ctrStale    *telemetry.Counter
}

// New builds a tracker over every device-profiled tier of the machine.
// A machine without one is a configuration error (ErrNoDevice): the
// caller should simply not construct a tracker.
func New(cfg Config, phys *mem.PhysMem) (*Tracker, error) {
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("devprof: slot count %d must be positive", cfg.Slots)
	}
	tk := &Tracker{cfg: cfg, phys: phys, device: make([]bool, phys.Tiers())}
	for t := 0; t < phys.Tiers(); t++ {
		id := mem.TierID(t)
		if !phys.TierSpecOf(id).Device {
			continue
		}
		tk.device[t] = true
		lo, _ := phys.TierRange(id)
		tk.tierIDs = append(tk.tierIDs, id)
		tk.bases = append(tk.bases, lo)
		tk.tables = append(tk.tables, make([]slot, cfg.Slots))
	}
	if len(tk.tierIDs) == 0 {
		return nil, ErrNoDevice
	}
	return tk, nil
}

// SetTracer attaches the telemetry layer: flushes emit KindDevFlush
// events and the devprof/* counters sync per flush. Record-only.
func (tk *Tracker) SetTracer(t *telemetry.Tracer) {
	tk.tel = t
	tk.ctrObserved = t.Counter("devprof/observed")
	tk.ctrFolded = t.Counter("devprof/folded")
	tk.ctrColl = t.Counter("devprof/collisions")
	tk.ctrVan = t.Counter("devprof/vanished")
	tk.ctrFlushes = t.Counter("devprof/flushes")
	tk.ctrLost = t.Counter("devprof/fault_lost")
	tk.ctrStale = t.Counter("devprof/fault_stale")
}

// SetFaultPlane attaches the fault-injection plane. nil (the default)
// injects nothing.
func (tk *Tracker) SetFaultPlane(p *fault.Plane) { tk.faults = p }

// Enable resumes tracking; a no-op once quarantined.
func (tk *Tracker) Enable() {
	if tk.quarantined {
		return
	}
	tk.disabled = false
}

// Disable pauses tracking.
func (tk *Tracker) Disable() { tk.disabled = true }

// Quarantine disables the tracker permanently: the profiler decided
// its injected-fault rate makes the device evidence corrupt.
func (tk *Tracker) Quarantine() {
	tk.quarantined = true
	tk.disabled = true
}

// Quarantined reports whether the tracker is permanently off.
func (tk *Tracker) Quarantined() bool { return tk.quarantined }

// Stats returns a copy of the tracker counters.
func (tk *Tracker) Stats() Stats { return tk.stats }

// ObserveRetire implements cpu.RetireObserver: accesses served by a
// device tier bump that frame's counter slot. Always returns 0 — the
// device does the counting, the host pays nothing.
func (tk *Tracker) ObserveRetire(o *trace.Outcome, ops int) int64 {
	if tk.disabled || !o.Source.IsMemory() {
		return 0
	}
	pfn := mem.PFNOf(o.PAddr)
	t := tk.phys.TierOf(pfn)
	if !tk.device[t] {
		return 0
	}
	tk.stats.Observed++
	// Locate the tier's table. Device tiers are few (usually one);
	// a linear scan beats any map here.
	for i, id := range tk.tierIDs {
		if id != t {
			continue
		}
		tbl := tk.tables[i]
		s := &tbl[int(pfn-tk.bases[i])%len(tbl)]
		if s.count == 0 {
			s.pfn = pfn
		}
		if s.pfn != pfn {
			tk.stats.Collisions++
			return 0
		}
		if s.count != ^uint32(0) {
			s.count++
			tk.staged++
		}
		return 0
	}
	return 0
}

// FlushAt harvests the device counters into the page descriptors
// (Epoch.Dev) at an epoch cut, clearing the staged counts. The error is
// nil on a clean flush, or wraps ErrOverflow / ErrStale when the fault
// plane fired; either way the tracker stays consistent and the caller
// needs no recovery beyond noting the degraded epoch.
func (tk *Tracker) FlushAt(now int64) (int, error) {
	tk.stats.Flushes++
	if tk.staged == 0 {
		// Nothing staged: no fault draw (a zero-rate or idle device
		// must leave its streams untouched), no event.
		tk.syncCounters()
		return 0, nil
	}
	if tk.faults.OverflowDevCounters() {
		lost := tk.staged
		tk.stats.FaultOverflows++
		tk.stats.FaultLost += lost
		for _, tbl := range tk.tables {
			clear(tbl)
		}
		tk.staged = 0
		tk.emit(now, 0, lost, 0)
		return 0, fmt.Errorf("devprof: hot-page queue wrapped, %d staged observations lost: %w", lost, ErrOverflow)
	}
	if tk.faults.StaleDevFlush() {
		late := tk.staged
		tk.stats.FaultStale++
		tk.stats.FaultLate += late
		tk.emit(now, 0, 0, late)
		return 0, fmt.Errorf("devprof: flush raced device aggregation, %d observations deferred: %w", late, ErrStale)
	}
	folded := 0
	for i := range tk.tables {
		tbl := tk.tables[i]
		for j := range tbl {
			s := &tbl[j]
			if s.count == 0 {
				continue
			}
			if tk.phys.Allocated(s.pfn) {
				// Saturating fold into the descriptor's device column.
				pd := tk.phys.Page(s.pfn)
				if sum := uint64(pd.Epoch.Dev) + uint64(s.count); sum < uint64(^uint32(0)) {
					pd.Epoch.Dev = uint32(sum)
				} else {
					pd.Epoch.Dev = ^uint32(0)
				}
				folded += int(s.count)
			} else {
				tk.stats.Vanished += uint64(s.count)
			}
			s.count = 0
		}
	}
	tk.stats.Folded += uint64(folded)
	tk.staged = 0
	tk.emit(now, uint64(folded), 0, 0)
	return folded, nil
}

// emit records one flush's telemetry and syncs the counters.
func (tk *Tracker) emit(now int64, folded, lost, late uint64) {
	if !tk.tel.Enabled() {
		return
	}
	tk.tel.EmitDevFlush(now, folded, lost, late)
	tk.syncCounters()
}

// syncCounters publishes the stats snapshot to the registry.
func (tk *Tracker) syncCounters() {
	if !tk.tel.Enabled() {
		return
	}
	tk.ctrObserved.Set(tk.stats.Observed)
	tk.ctrFolded.Set(tk.stats.Folded)
	tk.ctrColl.Set(tk.stats.Collisions)
	tk.ctrVan.Set(tk.stats.Vanished)
	tk.ctrFlushes.Set(tk.stats.Flushes)
	tk.ctrLost.Set(tk.stats.FaultLost)
	tk.ctrStale.Set(tk.stats.FaultStale)
}
