// Package ibs implements the trace-based sampling engine of the
// paper's TMP: an IBS/PEBS-style mechanism that tags every Nth retired
// micro-op, records the full memory-access context of tagged loads and
// stores (timestamp, CPU, PID, IP, virtual and physical data address,
// access type, data source, TLB status), and delivers records through
// a ring buffer that the TMP driver drains. Samples for memory ops
// whose data source is a cache level are recorded but TMP's hotness
// accumulation only credits demand accesses served from actual memory
// (the paper samples "if the data source is out of local, combined
// level 3 LLCs").
package ibs

import (
	"fmt"

	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/trace"
)

// Sampling periods, in retired micro-ops per tagged op. The paper's
// hardware default is 1/262144; its chosen rate is "4x the default".
// Experiments at laptop scale pass proportionally smaller periods via
// Config.Period so that multi-million-reference streams still yield
// statistically meaningful sample populations; the 1x/4x/8x *ratios*
// are what every figure depends on.
const (
	HardwareDefaultPeriod = 262144
	// Rate multipliers relative to a chosen base period.
	Rate1x = 1
	Rate4x = 4
	Rate8x = 8
)

// PeriodForRate derives the op period for a rate multiplier: 4x the
// sampling rate means one quarter the period. A positive base below
// the rate clamps to 1; a base that is not positive is returned as is,
// for New to reject.
func PeriodForRate(basePeriod, rate int) int {
	if rate <= 0 {
		rate = 1
	}
	if basePeriod <= 0 {
		return basePeriod
	}
	return max(basePeriod/rate, 1)
}

// Config parameterizes the engine.
type Config struct {
	// Period is the op-sampling period (ops per tagged op).
	Period int
	// RingCapacity is the sample buffer size; RingThreshold is the
	// occupancy at which the "interrupt" fires and the registered
	// drain callback runs.
	RingCapacity  int
	RingThreshold int
	// PerSampleCost is the virtual-ns charged to the executing core
	// for each tagged op's micro-interrupt (tagging + record copy).
	PerSampleCost int64
	// DrainCostPerSample is charged when the ring is drained, the
	// kernel-side copy-out the paper's TMP driver performs.
	DrainCostPerSample int64
	// Buffered selects LWP/PEBS-style delivery (§II-B): the hardware
	// appends records to the ring without raising an interrupt per
	// sample, and software is only interrupted at the ring threshold.
	// Per-sample cost drops to the record-append expense
	// (BufferedAppendCost); the trade-off is delivery latency — up to
	// a threshold's worth of samples sit unprocessed. False models
	// IBS op sampling, which interrupts on every tagged op.
	Buffered bool
	// BufferedAppendCost is the per-record hardware append cost in
	// buffered mode.
	BufferedAppendCost int64
	// MemoryOnly restricts hotness-relevant samples to accesses whose
	// data source is memory (TMP's configuration). When false every
	// tagged load/store is delivered, which inflates cache-hot pages
	// — an ablation arm.
	MemoryOnly bool
	// IncludePrefetch delivers samples for prefetch-hit demand
	// accesses too (ablation; TMP excludes them).
	IncludePrefetch bool
}

// DefaultConfig returns TMP's production configuration at a given
// period.
func DefaultConfig(period int) Config {
	return Config{
		Period:             period,
		RingCapacity:       4096,
		RingThreshold:      3072,
		PerSampleCost:      1200,
		BufferedAppendCost: 10,
		DrainCostPerSample: 40,
		MemoryOnly:         true,
	}
}

// LWPConfig returns the buffered-delivery variant of DefaultConfig:
// same sampling period, interrupts only at the ring threshold.
func LWPConfig(period int) Config {
	cfg := DefaultConfig(period)
	cfg.Buffered = true
	return cfg
}

// Stats exposes engine counters.
type Stats struct {
	TaggedOps      uint64 // ops selected by the period counter
	MemorySamples  uint64 // tagged ops that were loads/stores
	Delivered      uint64 // samples pushed to the ring
	FilteredCache  uint64 // memory-op tags dropped by MemoryOnly
	FilteredPrefix uint64 // tags dropped because they hit prefetched lines
	Drains         uint64
	OverheadNS     int64 // total virtual time charged to cores

	// Fault-plane injections (zero without a plane). FaultDrops are
	// individual samples lost before reaching the ring;
	// FaultOverflows are whole drain batches lost to buffer overruns,
	// FaultLost the samples those batches held. The profiler's
	// quarantine judges this mechanism by
	// (FaultDrops+FaultLost) / (Delivered+FaultDrops+FaultLost).
	FaultDrops     uint64
	FaultOverflows uint64
	FaultLost      uint64
}

// FaultRate returns the fraction of would-be-delivered samples lost to
// injected faults.
func (s Stats) FaultRate() (lost, attempts uint64) {
	lost = s.FaultDrops + s.FaultLost
	return lost, s.Delivered + s.FaultDrops
}

// Engine is the sampling engine. It implements cpu.RetireObserver.
type Engine struct {
	cfg      Config
	ring     *trace.Ring
	stats    Stats
	toNext   int // ops until the next tag
	rng      uint64
	disabled bool
	// quarantined is the sticky disabled state: the profiler parks a
	// mechanism here when its injected-fault rate crosses the
	// quarantine threshold, and no Enable (HWPC gate reopening
	// included) may resurrect it.
	quarantined bool
	// faults, when non-nil, can drop delivered samples and lose drain
	// batches.
	faults *fault.Plane

	// Accumulate attaches the TMP accumulation hook: it is invoked
	// for every delivered sample at drain time with the page
	// descriptor resolved from the physical address.
	phys  *mem.PhysMem
	onAcc func(s trace.Sample, pd *mem.PageDescriptor)

	drainBuf []trace.Sample

	// Telemetry (nil handles no-op when telemetry is off). lastNow is
	// the virtual timestamp of the last sample considered, which
	// stamps drain events: a threshold-triggered drain happens at the
	// push that crossed the threshold. Epoch flushes advance it to the
	// harvest time via FlushAt so the event stream stays time-ordered.
	tel         *telemetry.Tracer
	lastNow     int64
	lastDropped uint64
	ctrTagged   *telemetry.Counter
	ctrDeliv    *telemetry.Counter
	ctrFiltC    *telemetry.Counter
	ctrFiltP    *telemetry.Counter
	ctrDrains   *telemetry.Counter
	ctrDropped  *telemetry.Counter
	ctrOverhead *telemetry.Counter
}

// SetTracer attaches the telemetry layer: drains emit KindIBSDrain
// events carrying delivered and ring-overrun-dropped sample counts,
// and the ibs/* counters sync at each drain. Record-only.
func (e *Engine) SetTracer(t *telemetry.Tracer) {
	e.tel = t
	e.ctrTagged = t.Counter("ibs/tagged_ops")
	e.ctrDeliv = t.Counter("ibs/delivered")
	e.ctrFiltC = t.Counter("ibs/filtered_cache")
	e.ctrFiltP = t.Counter("ibs/filtered_prefetch")
	e.ctrDrains = t.Counter("ibs/drains")
	e.ctrDropped = t.Counter("ibs/dropped")
	e.ctrOverhead = t.Counter("ibs/overhead_ns")
}

// New builds an engine. phys may be nil if no accumulation hook is
// used (samples are still available via DrainInto).
func New(cfg Config, phys *mem.PhysMem) (*Engine, error) {
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("ibs: period %d must be positive", cfg.Period)
	}
	if cfg.RingCapacity <= 0 {
		return nil, fmt.Errorf("ibs: ring capacity %d must be positive", cfg.RingCapacity)
	}
	if cfg.RingThreshold <= 0 || cfg.RingThreshold > cfg.RingCapacity {
		cfg.RingThreshold = cfg.RingCapacity * 3 / 4
	}
	e := &Engine{cfg: cfg, toNext: cfg.Period, rng: 0x9e3779b97f4a7c15, phys: phys}
	e.ring = trace.NewRing(cfg.RingCapacity, cfg.RingThreshold, func(r *trace.Ring) {
		e.drain()
	})
	return e, nil
}

// SetAccumulator registers the per-sample accumulation hook run at
// drain time (TMP registers a hook that bumps PageDescriptor
// Epoch.Trace counters).
func (e *Engine) SetAccumulator(fn func(s trace.Sample, pd *mem.PageDescriptor)) {
	e.onAcc = fn
}

// Enable resumes sampling; a no-op once the engine is quarantined.
func (e *Engine) Enable() {
	if e.quarantined {
		return
	}
	e.disabled = false
}

// Disable pauses sampling (HWPC gating: trace collection off during
// cache-quiet phases).
func (e *Engine) Disable() { e.disabled = true }

// Enabled reports whether sampling is active.
func (e *Engine) Enabled() bool { return !e.disabled }

// Quarantine disables sampling permanently: the profiler decided this
// mechanism's fault rate makes its evidence corrupt. Unlike Disable,
// no later Enable reverses it.
func (e *Engine) Quarantine() {
	e.quarantined = true
	e.disabled = true
}

// Quarantined reports whether the engine is permanently off.
func (e *Engine) Quarantined() bool { return e.quarantined }

// SetFaultPlane attaches the fault-injection plane. nil (the default)
// injects nothing.
func (e *Engine) SetFaultPlane(p *fault.Plane) { e.faults = p }

// ObserveRetire implements cpu.RetireObserver: advance the op counter
// by the reference's op-group size and, when the period counter
// crosses zero inside the group, tag an op. The memory op is the
// first op of its group, so a tag lands on it only when the period
// boundary falls exactly there — reproducing IBS's property that most
// tagged ops are not loads/stores and yield no memory sample.
func (e *Engine) ObserveRetire(o *trace.Outcome, ops int) int64 {
	if e.disabled {
		return 0
	}
	var overhead int64
	perTagCost := e.cfg.PerSampleCost
	if e.cfg.Buffered {
		// LWP/PEBS: the hardware appends the record itself; no
		// interrupt until the ring threshold fires (charged at drain).
		perTagCost = e.cfg.BufferedAppendCost
	}
	for e.toNext <= ops {
		// An op in this group is tagged; offset of the tagged op
		// within the group (1-based).
		offset := e.toNext
		// Hardware randomizes the low bits of the period counter
		// (IbsOpCurCnt) so the tagged-op position does not alias
		// against loop structure; a small deterministic xorshift
		// jitter reproduces that.
		e.rng ^= e.rng << 13
		e.rng ^= e.rng >> 7
		e.rng ^= e.rng << 17
		jitter := 0
		if e.cfg.Period > 16 {
			jitter = int(e.rng&15) - 8
		}
		e.toNext += e.cfg.Period + jitter
		e.stats.TaggedOps++
		overhead += perTagCost
		if offset == 1 {
			// The tag fell on the memory op itself.
			e.recordSample(o)
		}
	}
	e.toNext -= ops
	e.stats.OverheadNS += overhead
	return overhead
}

func (e *Engine) recordSample(o *trace.Outcome) {
	e.lastNow = o.Now
	e.stats.MemorySamples++
	if e.cfg.MemoryOnly && !o.Source.IsMemory() {
		e.stats.FilteredCache++
		return
	}
	if !e.cfg.IncludePrefetch && o.PrefetchHit {
		e.stats.FilteredPrefix++
		return
	}
	if e.faults.DropIBSSample() {
		// The hardware tagged the op but the record never made it to
		// the ring (lost micro-interrupt). The tagging cost was still
		// paid by the core; only the evidence is gone.
		e.stats.FaultDrops++
		return
	}
	e.stats.Delivered++
	e.ring.Push(trace.SampleFromOutcome(o))
}

// drain empties the ring through the accumulation hook. It is invoked
// by the ring's threshold interrupt and by Flush.
func (e *Engine) drain() {
	e.stats.Drains++
	e.drainBuf = e.ring.Drain(e.drainBuf[:0])
	cost := int64(len(e.drainBuf)) * e.cfg.DrainCostPerSample
	if e.cfg.Buffered && len(e.drainBuf) > 0 {
		// The threshold interrupt that triggered this drain.
		cost += e.cfg.PerSampleCost
	}
	e.stats.OverheadNS += cost
	if len(e.drainBuf) > 0 && e.faults.OverflowIBSDrain() {
		// Buffer overflow: the handler paid the copy-out cost but the
		// records were overwritten mid-flight — the whole batch is
		// lost before accumulation.
		e.stats.FaultOverflows++
		e.stats.FaultLost += uint64(len(e.drainBuf))
		e.drainBuf = e.drainBuf[:0]
	}
	if e.tel.Enabled() {
		dropped := e.ring.Dropped() - e.lastDropped
		e.lastDropped = e.ring.Dropped()
		if len(e.drainBuf) > 0 || dropped > 0 {
			e.tel.EmitIBSDrain(e.lastNow, cost, len(e.drainBuf), dropped)
		}
		e.ctrTagged.Set(e.stats.TaggedOps)
		e.ctrDeliv.Set(e.stats.Delivered)
		e.ctrFiltC.Set(e.stats.FilteredCache)
		e.ctrFiltP.Set(e.stats.FilteredPrefix)
		e.ctrDrains.Set(e.stats.Drains)
		e.ctrDropped.Set(e.ring.Dropped())
		e.ctrOverhead.Set(uint64(e.stats.OverheadNS))
	}
	if e.onAcc == nil {
		return
	}
	for i := range e.drainBuf {
		s := &e.drainBuf[i]
		var pd *mem.PageDescriptor
		if e.phys != nil {
			pd = e.phys.PhysToPage(s.PAddr)
		}
		e.onAcc(*s, pd)
	}
}

// Flush drains any buffered samples immediately (end of epoch).
func (e *Engine) Flush() { e.drain() }

// FlushAt is Flush with the caller's current virtual time: the drain
// event is stamped at the flush rather than at the last buffered
// sample, keeping the telemetry stream time-ordered across subsystems.
func (e *Engine) FlushAt(now int64) {
	if now > e.lastNow {
		e.lastNow = now
	}
	e.drain()
}

// DrainInto moves buffered samples into dst without running the
// accumulation hook; for tools that want raw records.
func (e *Engine) DrainInto(dst []trace.Sample) []trace.Sample {
	return e.ring.Drain(dst)
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Dropped returns ring-overrun losses.
func (e *Engine) Dropped() uint64 { return e.ring.Dropped() }

// Period returns the configured op period.
func (e *Engine) Period() int { return e.cfg.Period }
