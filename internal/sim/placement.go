package sim

import (
	"fmt"

	"tieredmem/internal/core"
	"tieredmem/internal/cpu"
	"tieredmem/internal/emul"
	"tieredmem/internal/fault"
	"tieredmem/internal/fault/invariant"
	"tieredmem/internal/mem"
	"tieredmem/internal/policy"
	"tieredmem/internal/provenance"
	"tieredmem/internal/report"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/workload"
)

// PlacementConfig assembles an end-to-end tiered-memory run (§VI-C):
// a machine whose fast tier holds only 1/Ratio of the footprint, a
// placement arm (first-touch baseline or TMP-driven policy), and
// optionally the BadgerTrap emulation cost model layered on top.
type PlacementConfig struct {
	CPU cpu.Config
	TMP core.Config
	// Ratio is the footprint:fast-tier ratio (the paper's 4 GB fast /
	// 60 GB slow testbed is ~1/16).
	Ratio int
	// Tiers is the machine's full tier chain (use DefaultChain for a
	// workload-sized one); nil means DefaultChain(w, Ratio, 2) for this
	// machine, which a sharded run resolves per cell. The policy's
	// tier-1 capacity is the chain's top tier less the huge-fault slack.
	Tiers mem.TierChain
	// Policy drives migrations at epoch horizons; nil runs the
	// first-come-first-allocate baseline with no mover and no
	// profiler.
	Policy policy.Policy
	// Method selects the profiling evidence the policy ranks by.
	Method core.Method
	// EpochNS is the placement epoch.
	EpochNS   int64
	TotalRefs int
	BatchSize int
	Huge      bool
	// EmulCosts, when non-nil, enables the BadgerTrap emulation
	// framework with these costs (PaperCosts for §VI-C).
	EmulCosts *emul.Costs
	// Khugepaged enables the THP collapser: splits from partial-huge
	// migrations are periodically repaired so the address space does
	// not degrade to 4 KiB translations for the rest of the run.
	Khugepaged bool
	// Tracer, when non-nil, records structured telemetry for the run
	// (events, counters). Telemetry is inert: results are byte-identical
	// with or without it.
	Tracer *telemetry.Tracer
	// Faults, when non-nil, is the run's fault-injection plane (one
	// plane per run, like Tracer): it can drop IBS samples, abort
	// A-bit walks, wrap HWPC counters, and fail migrations. A nil
	// plane — and one with an all-zero spec — is inert.
	Faults *fault.Plane
	// Prov, when non-nil, is the run's decision-provenance flight
	// recorder (one recorder per run, like Tracer): it captures each
	// page's per-epoch evidence, rank position, and verdict. Inert like
	// telemetry: results are byte-identical with or without it.
	Prov *provenance.Recorder
	// Invariants asserts the epoch invariant checker (frame
	// conservation, mapping bijection, mover accounting) after every
	// placement pass; it is forced on whenever Faults can inject.
	Invariants bool
	// TxMigration switches the mover to the transactional engine:
	// multi-phase migrations (claim, copy-while-mapped, verify-clean,
	// remap) that abort on a mid-copy write, plus non-exclusive shadow
	// copies making the re-demotion of a clean page a zero-copy remap.
	// Off runs the legacy single-phase mover bit-for-bit.
	TxMigration bool
	// AdmissionFrac bounds per-epoch migration traffic to this fraction
	// of EpochNS worth of simulated line-transfer time (the bandwidth
	// admission controller). <= 0 disables admission control.
	AdmissionFrac float64
}

// DefaultPlacementConfig mirrors DefaultConfig for placement runs: the
// same scaled CPU and TMP defaults and epoch, THP on, khugepaged on.
func DefaultPlacementConfig(w workload.Workload, ibsPeriod, totalRefs, ratio int, p policy.Policy, m core.Method) PlacementConfig {
	base := DefaultConfig(w, ibsPeriod, totalRefs)
	return PlacementConfig{
		CPU:        base.CPU,
		TMP:        base.TMP,
		Ratio:      ratio,
		Policy:     p,
		Method:     m,
		EpochNS:    ScaledSecond,
		TotalRefs:  totalRefs,
		BatchSize:  BatchSize,
		Huge:       true,
		Khugepaged: true,
	}
}

// DefaultChain sizes an n-tier chain (2 ≤ n ≤ 4) for a workload: the
// top tier holds 1/ratio of the footprint (plus huge-fault slack), the
// bottom tier alone can absorb the whole footprint with 25% headroom,
// and middle tiers step geometrically between them. The 3- and 4-tier
// shapes place a device-profiled CXL expander directly under DRAM, so a
// devprof tracker has a tier to observe. n == 2 is the DefaultTiers
// layout element for element, and is what RunPlacement builds when
// Tiers is nil.
func DefaultChain(w workload.Workload, ratio, n int) (mem.TierChain, error) {
	if ratio <= 0 {
		ratio = 16
	}
	foot := int(w.FootprintBytes() >> mem.PageShift)
	top := foot/ratio + mem.HugePages
	bottom := foot + foot/4 + mem.HugePages
	var spec string
	switch n {
	case 2:
		spec = fmt.Sprintf("dram:%d/nvm:%d", top, bottom)
	case 3:
		spec = fmt.Sprintf("dram:%d/cxl:%d/nvm:%d", top, 2*foot/ratio+mem.HugePages, bottom)
	case 4:
		spec = fmt.Sprintf("dram:%d/cxl:%d/nvm:%d/ssd:%d",
			top, 2*foot/ratio+mem.HugePages, 4*foot/ratio+mem.HugePages, bottom)
	default:
		return nil, fmt.Errorf("sim: no default %d-tier chain (want 2..4): %w", n, mem.ErrBadChain)
	}
	return mem.ParseTierChain(spec)
}

// PlacementResult summarizes an end-to-end run.
type PlacementResult struct {
	Workload   string
	Arm        string // "first-touch" or the policy/method name
	Refs       int
	DurationNS int64
	NumCores   int
	// Tier-1 hitrate over memory accesses, measured live.
	MemAccesses  uint64
	Tier1Hits    uint64
	Promotions   uint64
	Demotions    uint64
	EmulInjected int64
	EmulFaults   uint64

	// Robustness accounting (all zero in unfaulted runs). The mover's
	// failure aggregate is partitioned by reason, retry outcomes track
	// the deferred-retry queue, and FaultsInjected totals the plane's
	// firings across every site.
	Failed          uint64
	FailedCapacity  uint64
	FailedPinned    uint64
	FailedVanished  uint64
	FailedSplit     uint64
	Retried         uint64
	RetrySucceeded  uint64
	RetrySuperseded uint64
	RetryDropped    uint64
	FaultsInjected  uint64
	// Transactional-migration accounting (all zero unless TxMigration):
	// transaction outcomes, shadow-copy hits, and the admission
	// controller's decisions (the latter all zero unless AdmissionFrac).
	TxStarted          uint64
	TxCommitted        uint64
	AbortedDirty       uint64
	ShadowHits         uint64
	ShadowStale        uint64
	AdmittedPromotions uint64
	AdmittedDemotions  uint64
	DeferredAdmission  uint64
	RejectedPromotions uint64
	RejectedDemotions  uint64
	// Quarantined lists mechanisms the profiler permanently disabled,
	// in fixed (ibs, abit, hwpc, devprof) order.
	Quarantined []string
}

// Hitrate returns the live tier-1 memory hitrate.
func (r PlacementResult) Hitrate() float64 {
	if r.MemAccesses == 0 {
		return 0
	}
	return float64(r.Tier1Hits) / float64(r.MemAccesses)
}

// moverCounter is one mover counter a placement run reports.
type moverCounter struct {
	row string  // its fault-attribution row; "" for none
	res *uint64 // the PlacementResult field
	mv  *uint64 // the Mover field it copies
}

// moverCounters lists the mover counters a placement run reports, in
// fault-attribution order, as fields of res and of mv (a zero Mover
// when nil). RunPlacement's copy, RunShardedPlacement's cell-order sum
// and FaultAttribution's rows all range over this one list.
func moverCounters(res *PlacementResult, mv *policy.Mover) []moverCounter {
	if mv == nil {
		mv = &policy.Mover{}
	}
	return []moverCounter{
		{"", &res.Promotions, &mv.Promotions},
		{"", &res.Demotions, &mv.Demotions},
		{"mover/failed", &res.Failed, &mv.Failed},
		{"mover/failed_capacity", &res.FailedCapacity, &mv.FailedCapacity},
		{"mover/failed_pinned", &res.FailedPinned, &mv.FailedPinned},
		{"mover/failed_vanished", &res.FailedVanished, &mv.FailedVanished},
		{"mover/failed_split", &res.FailedSplit, &mv.FailedSplit},
		{"mover/retries", &res.Retried, &mv.Retried},
		{"mover/retry_succeeded", &res.RetrySucceeded, &mv.RetrySucceeded},
		{"mover/retry_superseded", &res.RetrySuperseded, &mv.RetrySuperseded},
		{"mover/retry_dropped", &res.RetryDropped, &mv.RetryDropped},
		{"mover/tx_started", &res.TxStarted, &mv.TxStarted},
		{"mover/tx_committed", &res.TxCommitted, &mv.TxCommitted},
		{"mover/aborted_dirty", &res.AbortedDirty, &mv.AbortedDirty},
		{"mover/shadow_hits", &res.ShadowHits, &mv.ShadowHits},
		{"mover/shadow_stale", &res.ShadowStale, &mv.ShadowStale},
		{"mover/admitted_promotions", &res.AdmittedPromotions, &mv.AdmittedPromotions},
		{"mover/admitted_demotions", &res.AdmittedDemotions, &mv.AdmittedDemotions},
		{"mover/deferred_admission", &res.DeferredAdmission, &mv.DeferredAdmission},
		{"mover/rejected_promotions", &res.RejectedPromotions, &mv.RejectedPromotions},
		{"mover/rejected_demotions", &res.RejectedDemotions, &mv.RejectedDemotions},
	}
}

// FaultAttribution assembles the fault-attribution section of a
// placement run from its fault planes (one per cell when sharded, in
// cell order): per-site injection counts summed over the planes, then
// the mover's reason-partitioned failures, retry-queue, transaction and
// admission outcomes, then quarantined mechanisms, in a fixed order so
// the rendered report is deterministic.
func FaultAttribution(planes []*fault.Plane, res PlacementResult) []report.FaultRow {
	rows := make([]report.FaultRow, 0, 32)
	for _, s := range fault.Sites() {
		var total uint64
		for _, p := range planes {
			total += p.Injected(s)
		}
		rows = append(rows, report.FaultRow{Name: "fault/" + s.String() + "_injected", Value: total})
	}
	for _, c := range moverCounters(&res, nil) {
		if c.row != "" {
			rows = append(rows, report.FaultRow{Name: c.row, Value: *c.res})
		}
	}
	return append(rows, report.FaultRow{Name: "quarantined_mechanisms", Value: uint64(len(res.Quarantined))})
}

// RunPlacement executes an end-to-end tiered run and returns its
// result. Speedup is computed by the caller as baseline duration over
// policy duration.
func RunPlacement(cfg PlacementConfig, w workload.Workload) (PlacementResult, error) {
	if cfg.TotalRefs <= 0 {
		return PlacementResult{}, fmt.Errorf("sim: TotalRefs %d must be positive", cfg.TotalRefs)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = BatchSize
	}
	if cfg.EpochNS <= 0 {
		cfg.EpochNS = ScaledSecond
	}
	if cfg.Ratio <= 0 {
		cfg.Ratio = 16
	}
	if cfg.Tiers == nil {
		chain, err := DefaultChain(w, cfg.Ratio, 2)
		if err != nil {
			return PlacementResult{}, err
		}
		cfg.Tiers = chain
	}
	// Capacity the policy may fill: leave the huge-fault slack out so
	// promotions never fail on a full tier.
	capacity := max(cfg.Tiers[0].Frames-mem.HugePages, 0)
	m, err := cpu.NewMachine(cfg.CPU, cfg.Tiers)
	if err != nil {
		return PlacementResult{}, err
	}
	if cfg.Huge {
		m.SetHugeHint(workload.HugeHintFor(w))
	}

	res := PlacementResult{Workload: w.Name(), Arm: "first-touch", NumCores: len(m.Cores())}

	var prof *core.Profiler
	var mover *policy.Mover
	if cfg.Policy != nil {
		res.Arm = fmt.Sprintf("%s/%s", cfg.Policy.Name(), cfg.Method)
		prof, err = core.New(cfg.TMP, m, nil)
		if err != nil {
			return PlacementResult{}, err
		}
		for _, pid := range w.Processes() {
			prof.Register(pid)
		}
		mover = policy.NewMover(m)
		mover.Transactional = cfg.TxMigration
		mover.AdmissionBudgetNS = policy.AdmissionBudgetNS(cfg.EpochNS, cfg.AdmissionFrac)
		if cfg.Tracer.Enabled() {
			prof.SetTracer(cfg.Tracer)
			mover.SetTracer(cfg.Tracer)
		}
		if cfg.Prov.Enabled() {
			cfg.Prov.SetTracer(cfg.Tracer)
			mover.SetProvenance(cfg.Prov)
		}
	}
	if cfg.Tracer.Enabled() {
		m.Phys.SetTracer(cfg.Tracer)
	}
	if cfg.Faults != nil {
		m.Phys.SetFaultPlane(cfg.Faults)
		if prof != nil {
			prof.SetFaultPlane(cfg.Faults)
		}
		if mover != nil {
			mover.SetFaultPlane(cfg.Faults)
		}
		if cfg.Tracer.Enabled() {
			cfg.Faults.SetTracer(cfg.Tracer)
		}
	}
	// Under fault injection (or on request) every placement pass must
	// leave the machine conserved: no frame lost or duplicated, every
	// mapping backed, mover counters consistent. The checker only
	// reads, so checked runs are byte-identical to unchecked ones.
	var inv *invariant.Checker
	if cfg.Invariants || cfg.Faults.Enabled() {
		inv = invariant.New()
	}
	var collapser *policy.Collapser
	if cfg.Khugepaged && cfg.Huge {
		collapser = policy.NewCollapser(m)
	}

	var em *emul.Emulator
	if cfg.EmulCosts != nil {
		costs := *cfg.EmulCosts
		if costs.WindowNS <= 0 {
			costs.WindowNS = cfg.EpochNS
		}
		em, err = emul.New(costs, m)
		if err != nil {
			return PlacementResult{}, err
		}
		if mover != nil {
			// Under emulation the paper's migration cost replaces
			// the mover's own estimate.
			mover.CostPerPageNS = costs.MigrationNS
		}
	}

	pids := w.Processes()

	// Harvest scratch reused across epochs: the placement loop drops
	// each harvest after selection, so steady-state epochs run
	// allocation-free (HarvestEpochInto recycles ep's backing array).
	var ep core.EpochStats
	nextEpoch := cfg.EpochNS
	res.MemAccesses, res.Tier1Hits, err = Drive(m, w, cfg.TotalRefs, cfg.BatchSize, func(int) error {
		now := m.Now()
		if prof != nil {
			prof.Tick(now)
		}
		if em != nil {
			em.TickIfDue(now)
		}
		if now < nextEpoch {
			return nil
		}
		if prof != nil {
			prof.HarvestEpochInto(&ep)
			// Quarantine degrades the requested evidence method to
			// whatever mechanisms survive; without faults nothing is
			// ever quarantined and this is the identity.
			method := prof.EffectiveMethod(cfg.Method)
			sel := cfg.Policy.Select(ep, core.EpochStats{}, method, capacity)
			if cfg.Prov.Enabled() {
				// Record the harvest before the mover runs so the
				// evidence snapshot predates any tier transition.
				cfg.Prov.BeginEpoch(ep.Epoch, method, cfg.Method, mover.MinPromoteRank)
				cfg.Prov.ObserveHarvest(ep, func(k core.PageKey) bool {
					_, ok := sel[k]
					return ok
				})
			}
			promoted, demoted := mover.ApplySelection(sel, core.RanksOf(ep, method))
			cfg.Prov.FinishEpoch()
			if em != nil && promoted+demoted > 0 {
				extra := em.ChargeMigration(promoted + demoted)
				m.Core(0).AdvanceClock(extra)
				// Newly demoted pages must be re-protected now, not
				// at the next window.
				em.Repoison()
			}
		} else {
			m.Phys.ResetEpochAll()
			// The baseline arm has no profiler to cut telemetry
			// epochs; cut here so its counter deltas stay aligned to
			// the same horizons as the policy arms.
			cfg.Tracer.CutEpoch(now, 0)
		}
		if collapser != nil {
			// khugepaged cadence: repair a couple of split chunks per
			// epoch.
			collapser.Collapse(pids, 2)
		}
		if inv != nil {
			if err := inv.Check(m.Phys, m.Tables(), mover); err != nil {
				return fmt.Errorf("sim: placement epoch at %dns: %w", now, err)
			}
		}
		// One placement pass per batch even if multiple epoch
		// boundaries elapsed (migration work advances the clock;
		// re-running placement on empty harvests would thrash).
		for nextEpoch <= now {
			nextEpoch += cfg.EpochNS
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	if inv != nil {
		if err := inv.Check(m.Phys, m.Tables(), mover); err != nil {
			return res, fmt.Errorf("sim: final state: %w", err)
		}
	}
	res.Refs = cfg.TotalRefs
	res.DurationNS = m.Now()
	if mover != nil {
		// Copy through a temporary: taking res's address would move
		// it to the heap.
		counts := res
		for _, c := range moverCounters(&counts, mover) {
			*c.res = *c.mv
		}
		res = counts
	}
	if prof != nil {
		res.Quarantined = prof.QuarantinedMechanisms()
	}
	res.FaultsInjected = cfg.Faults.TotalInjected()
	if em != nil {
		s := em.Stats()
		res.EmulInjected = s.InjectedNS
		res.EmulFaults = s.Faults
	}
	return res, nil
}
