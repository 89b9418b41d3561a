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
	// 60 GB slow testbed is ~1/16). It sizes the default chain, so with
	// nil Tiers a Ratio that is not positive fails the run; with Tiers
	// set it is unused.
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
		return nil, fmt.Errorf("sim: ratio %d must be positive: %w", ratio, mem.ErrBadChain)
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
	r, err := newPlacementRun(cfg, w)
	if err != nil {
		return PlacementResult{}, err
	}
	r.res.MemAccesses, r.res.Tier1Hits, err = Drive(r.m, w, r.cfg.TotalRefs, r.cfg.BatchSize, r.afterBatch)
	if err != nil {
		return r.res, err
	}
	return r.finish()
}

// placementRun is one placement run: its machine, its arm's daemons and
// the scratch its epochs reuse. The scratch is the run's own, so
// sharded cells and experiment workers share nothing.
type placementRun struct {
	cfg      PlacementConfig
	m        *cpu.Machine
	pids     []int
	capacity int
	res      PlacementResult

	prof      *core.Profiler
	mover     *policy.Mover
	inv       *invariant.Checker
	collapser *policy.Collapser
	em        *emul.Emulator

	// Epoch scratch. pol is cfg.Policy with selection scratch of its
	// own (policy.Reusable): the loop drops each selection after
	// ApplySelection, and the rank table and the harvest are dropped
	// at the same point, so steady-state epochs run allocation-free.
	pol       policy.Policy
	ranks     core.RankTable
	ep        core.EpochStats
	nextEpoch int64
}

// newPlacementRun builds a placement run's machine and arm from cfg,
// filling cfg's defaults.
func newPlacementRun(cfg PlacementConfig, w workload.Workload) (*placementRun, error) {
	if cfg.TotalRefs <= 0 {
		return nil, fmt.Errorf("sim: TotalRefs %d must be positive", cfg.TotalRefs)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = BatchSize
	}
	if cfg.EpochNS <= 0 {
		cfg.EpochNS = ScaledSecond
	}
	if cfg.Tiers == nil {
		chain, err := DefaultChain(w, cfg.Ratio, 2)
		if err != nil {
			return nil, err
		}
		cfg.Tiers = chain
	}
	m, err := cpu.NewMachine(cfg.CPU, cfg.Tiers)
	if err != nil {
		return nil, err
	}
	if cfg.Huge {
		m.SetHugeHint(workload.HugeHintFor(w))
	}
	r := &placementRun{
		cfg: cfg,
		m:   m,
		// Capacity the policy may fill: leave the huge-fault slack out
		// so promotions never fail on a full tier.
		capacity:  max(cfg.Tiers[0].Frames-mem.HugePages, 0),
		res:       PlacementResult{Workload: w.Name(), Arm: "first-touch", NumCores: len(m.Cores())},
		pids:      w.Processes(),
		nextEpoch: cfg.EpochNS,
	}

	if cfg.Policy != nil {
		r.res.Arm = fmt.Sprintf("%s/%s", cfg.Policy.Name(), cfg.Method)
		r.pol = policy.Reusable(cfg.Policy)
		r.prof, err = core.New(cfg.TMP, m, nil)
		if err != nil {
			return nil, err
		}
		for _, pid := range r.pids {
			r.prof.Register(pid)
		}
		r.mover = policy.NewMover(m)
		r.mover.Transactional = cfg.TxMigration
		r.mover.AdmissionBudgetNS = policy.AdmissionBudgetNS(cfg.EpochNS, cfg.AdmissionFrac)
		if cfg.Tracer.Enabled() {
			r.prof.SetTracer(cfg.Tracer)
			r.mover.SetTracer(cfg.Tracer)
		}
		if cfg.Prov.Enabled() {
			cfg.Prov.SetTracer(cfg.Tracer)
			r.mover.SetProvenance(cfg.Prov)
		}
	}
	if cfg.Tracer.Enabled() {
		m.Phys.SetTracer(cfg.Tracer)
	}
	if cfg.Faults != nil {
		m.Phys.SetFaultPlane(cfg.Faults)
		if r.prof != nil {
			r.prof.SetFaultPlane(cfg.Faults)
		}
		if r.mover != nil {
			r.mover.SetFaultPlane(cfg.Faults)
		}
		if cfg.Tracer.Enabled() {
			cfg.Faults.SetTracer(cfg.Tracer)
		}
	}
	// Under fault injection (or on request) every placement pass must
	// leave the machine conserved: no frame lost or duplicated, every
	// mapping backed, mover counters consistent. The checker only
	// reads, so checked runs are byte-identical to unchecked ones.
	if cfg.Invariants || cfg.Faults.Enabled() {
		r.inv = invariant.New()
	}
	if cfg.Khugepaged && cfg.Huge {
		r.collapser = policy.NewCollapser(m)
	}

	if cfg.EmulCosts != nil {
		costs := *cfg.EmulCosts
		if costs.WindowNS <= 0 {
			costs.WindowNS = cfg.EpochNS
		}
		r.em, err = emul.New(costs, m)
		if err != nil {
			return nil, err
		}
		if r.mover != nil {
			// Under emulation the paper's migration cost replaces
			// the mover's own estimate.
			r.mover.CostPerPageNS = costs.MigrationNS
		}
	}
	return r, nil
}

// afterBatch is the run's Drive callback: it ticks the daemons and, at
// an epoch horizon, runs one placement pass.
func (r *placementRun) afterBatch(int) error {
	now := r.m.Now()
	if r.prof != nil {
		r.prof.Tick(now)
	}
	if r.em != nil {
		r.em.TickIfDue(now)
	}
	if now < r.nextEpoch {
		return nil
	}
	r.harvest(now)
	if err := r.place(now); err != nil {
		return err
	}
	// One placement pass per batch even if multiple epoch boundaries
	// elapsed (migration work advances the clock; re-running placement
	// on empty harvests would thrash).
	for r.nextEpoch <= now {
		r.nextEpoch += r.cfg.EpochNS
	}
	return nil
}

// harvest ends the epoch's evidence: the policy arm harvests it into
// the run's scratch, the baseline arm resets it.
func (r *placementRun) harvest(now int64) {
	if r.prof != nil {
		r.prof.HarvestEpochInto(&r.ep)
		return
	}
	r.m.Phys.ResetEpochAll()
	// The baseline arm has no profiler to cut telemetry epochs; cut
	// here so its counter deltas stay aligned to the same horizons as
	// the policy arms.
	r.cfg.Tracer.CutEpoch(now, 0)
}

// place runs the placement pass on the harvest in r.ep: selection,
// migration, the khugepaged pass and the invariant check.
func (r *placementRun) place(now int64) error {
	if r.prof != nil {
		cfg := r.cfg
		// Quarantine degrades the requested evidence method to
		// whatever mechanisms survive; without faults nothing is ever
		// quarantined and this is the identity.
		method := r.prof.EffectiveMethod(cfg.Method)
		sel := r.pol.Select(r.ep, core.EpochStats{}, method, r.capacity)
		if cfg.Prov.Enabled() {
			// Record the harvest before the mover runs so the evidence
			// snapshot predates any tier transition.
			cfg.Prov.BeginEpoch(r.ep.Epoch, method, cfg.Method, r.mover.MinPromoteRank)
			cfg.Prov.ObserveHarvest(r.ep, func(k core.PageKey) bool {
				_, ok := sel[k]
				return ok
			})
		}
		promoted, demoted := r.mover.ApplySelection(sel, r.ranks.Of(r.ep, method))
		cfg.Prov.FinishEpoch()
		if r.em != nil && promoted+demoted > 0 {
			extra := r.em.ChargeMigration(promoted + demoted)
			r.m.Core(0).AdvanceClock(extra)
			// Newly demoted pages must be re-protected now, not at the
			// next window.
			r.em.Repoison()
		}
	}
	if r.collapser != nil {
		// khugepaged cadence: repair a couple of split chunks per
		// epoch.
		r.collapser.Collapse(r.pids, 2)
	}
	if r.inv != nil {
		if err := r.inv.Check(r.m.Phys, r.m.Tables(), r.mover); err != nil {
			return fmt.Errorf("sim: placement epoch at %dns: %w", now, err)
		}
	}
	return nil
}

// finish checks the final state and assembles the run's result.
func (r *placementRun) finish() (PlacementResult, error) {
	res := r.res
	if r.inv != nil {
		if err := r.inv.Check(r.m.Phys, r.m.Tables(), r.mover); err != nil {
			return res, fmt.Errorf("sim: final state: %w", err)
		}
	}
	res.Refs = r.cfg.TotalRefs
	res.DurationNS = r.m.Now()
	if r.mover != nil {
		for _, c := range moverCounters(&res, r.mover) {
			*c.res = *c.mv
		}
	}
	if r.prof != nil {
		res.Quarantined = r.prof.QuarantinedMechanisms()
	}
	res.FaultsInjected = r.cfg.Faults.TotalInjected()
	if r.em != nil {
		s := r.em.Stats()
		res.EmulInjected = s.InjectedNS
		res.EmulFaults = s.Faults
	}
	return res, nil
}
