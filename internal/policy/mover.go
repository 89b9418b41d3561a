package policy

import (
	"errors"
	"slices"

	"tieredmem/internal/core"
	"tieredmem/internal/cpu"
	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/pagetable"
	"tieredmem/internal/provenance"
	"tieredmem/internal/telemetry"
)

// Mover implements the paper's §IV step 3: it physically relocates
// pages across tiers at epoch horizons while processes run. Virtual
// addresses never change — the mover allocates a frame in the target
// tier, copies, remaps the PTE, frees the old frame, and issues one
// machine-wide TLB shootdown per epoch for the whole batch (the reason
// the paper chose epoch-based policies in the first place).
//
// Migrations fail — organically (tier full, mapping unmapped while the
// selection was in flight) and under fault injection (transient pins,
// allocation pressure, failed THP splits, dirtied copies). A failed
// migration is one provenance.FailReason from where it happens to where
// it is counted and recorded: every reason but FailVanished is
// transient and goes to a bounded deferred-retry queue, re-attempted in
// later epochs with exponential epoch backoff; a vanished mapping is
// dropped. The queue cannot distinguish injected failures from organic
// ones — by design, so chaos runs exercise exactly the production
// response path.
type Mover struct {
	machine *cpu.Machine
	// CostPerPageNS is the per-page migration expense (copy + fixups)
	// charged to core 0, which runs the mover; the paper's emulation
	// uses 50 us.
	CostPerPageNS int64
	// MinPromoteRank gates promotions: a slow-tier page is only
	// worth a migration when its evidence reaches this rank ("to
	// justify the migration cost, the hottest pages should be
	// migrated", §IV). Rank 2 means corroborated evidence — an A-bit
	// observation plus at least one trace sample, or repeated
	// samples. 0 disables the gate.
	MinPromoteRank uint64
	// MaxRetries caps how many times one page's transient failure is
	// attempted in total (initial try included) before the mover gives
	// up on it.
	MaxRetries int
	// RetryQueueCap bounds the deferred-retry queue; failures that
	// would overflow it are dropped (counted in RetryDropped), not
	// queued — a mover drowning in failures must not hoard memory.
	RetryQueueCap int
	// Transactional switches migrate to the multi-phase transaction
	// engine (claim → copy-while-mapped → verify-clean → remap), with
	// dirty-copy aborts re-queued through the retry queue and the
	// vacated frame of a promotion kept as a non-exclusive shadow copy
	// (see ROBUSTNESS.md "The migration transaction"). Off by default:
	// the legacy single-phase path is byte-identical to pre-engine
	// movers.
	Transactional bool
	// AdmissionBudgetNS, when positive, gates the migration stream: an
	// epoch may spend at most this much simulated migration bandwidth
	// (ns of line copies priced from the tier chain's latency points,
	// see PageCopyCostNS). Migrations past the budget are deferred into
	// the retry queue, or rejected outright when it is full. 0 admits
	// everything without drawing or counting.
	AdmissionBudgetNS int64

	// Stats.
	Promotions uint64
	Demotions  uint64
	Splits     uint64 // THP splits forced by partial-huge migrations
	Shootdowns uint64
	OverheadNS int64
	// Failed aggregates every migration failure; the per-reason
	// counters below partition it (Failed = Capacity + Pinned +
	// Vanished + Split + AbortedDirty).
	Failed         uint64
	FailedCapacity uint64 // target tier had no frame (FailCapacity)
	FailedPinned   uint64 // page transiently pinned (FailPinned)
	FailedVanished uint64 // mapping gone mid-flight (FailVanished)
	FailedSplit    uint64 // THP split failed (FailSplit)
	// Retry-queue accounting. Retried counts re-attempts drained from
	// the queue; RetrySucceeded the ones that completed;
	// RetrySuperseded entries dropped because the selection reversed
	// direction before the retry came due; RetryDropped entries
	// abandoned at the attempt cap or queue bound.
	Retried         uint64
	RetrySucceeded  uint64
	RetrySuperseded uint64
	RetryDropped    uint64
	// Transaction accounting (Transactional mode only). Every claimed
	// transaction resolves exactly one way:
	// TxStarted = TxCommitted + AbortedDirty + TxRemapFailed.
	TxStarted    uint64
	TxCommitted  uint64
	AbortedDirty uint64 // verify-clean found the page written mid-copy (FailCopyAbort)
	// TxRemapFailed: the mapping vanished between claim and remap;
	// counted under FailedVanished in the failure partition.
	TxRemapFailed uint64
	// Shadow-copy accounting: ShadowHits are demotions satisfied by
	// remapping to a still-valid shadow (zero copy work); ShadowStale
	// counts adoptions abandoned because the fault plane invalidated
	// the shadow at the last moment (the demotion then pays the full
	// copy path).
	ShadowHits  uint64
	ShadowStale uint64
	// Admission accounting (AdmissionBudgetNS > 0 only). Admitted* are
	// migrations charged against the epoch budget; DeferredAdmission
	// were pushed to the retry queue for the next epoch; Rejected* were
	// dropped because the queue was full too.
	AdmittedPromotions uint64
	AdmittedDemotions  uint64
	DeferredAdmission  uint64
	RejectedPromotions uint64
	RejectedDemotions  uint64

	epoch   uint64
	retries []retryEntry
	charged int64 // portion of OverheadNS already charged to core 0

	// Per-epoch scratch, truncated and refilled by every ApplySelection
	// so a steady-state epoch allocates nothing: the per-tier candidate
	// columns candidates returns, the frames it sorts, the demotion
	// plan, and the retry replay's queued keys and due entries.
	demoteCols  [][]demoteCand
	promoteCols [][]core.PageKey
	frames      []mem.PFN
	plan        []int
	queuedKeys  map[core.PageKey]struct{}
	due         []retryEntry
	// Per-direction admission spend this epoch; each direction owns
	// half of AdmissionBudgetNS (see admit).
	admSpentPromote int64
	admSpentDemote  int64

	// faults, when non-nil, can pin pages and fail splits (AllocIn
	// pressure is injected inside mem.PhysMem).
	faults *fault.Plane

	// prov, when non-nil, receives per-page decision outcomes (moves,
	// failures, deferrals) for the flight recorder. Record-only.
	prov *provenance.Recorder
	// lastMigNS stamps the previous successful migration for the
	// inter-arrival histogram.
	lastMigNS int64

	// Telemetry (nil handles no-op when telemetry is off). counters
	// pairs each mover/* counter with the field it mirrors; overhead_ns
	// mirrors the signed OverheadNS, so it stands apart.
	tel          *telemetry.Tracer
	counters     []mirroredCounter
	ctrOverhead  *telemetry.Counter
	histRetryLat *telemetry.Histogram
	histInter    *telemetry.Histogram
}

// mirroredCounter is one mover/* telemetry counter and the Mover field
// it mirrors after every ApplySelection.
type mirroredCounter struct {
	ctr   *telemetry.Counter
	field *uint64
}

// retryEntry is one deferred migration: re-attempt moving key in the
// recorded direction once due arrives, unless the selection has
// reversed by then.
type retryEntry struct {
	key      core.PageKey
	promote  bool
	attempts int    // failed attempts so far
	due      uint64 // first epoch eligible for re-attempt
	// firstFail is the epoch of the original failure, so a retry that
	// finally lands can observe its end-to-end latency in epochs.
	firstFail uint64
}

// SetTracer attaches the telemetry layer: each successful migration
// emits a KindMigration instant, the per-epoch batch shootdown a
// KindShootdown span, and the mover/* counters sync after every
// ApplySelection. Record-only — selection and migration order are
// unchanged.
func (mv *Mover) SetTracer(t *telemetry.Tracer) {
	mv.tel = t
	mv.counters = []mirroredCounter{
		{t.Counter("mover/promotions"), &mv.Promotions},
		{t.Counter("mover/demotions"), &mv.Demotions},
		{t.Counter("mover/splits"), &mv.Splits},
		{t.Counter("mover/shootdowns"), &mv.Shootdowns},
		{t.Counter("mover/failed"), &mv.Failed},
		{t.Counter("mover/failed_capacity"), &mv.FailedCapacity},
		{t.Counter("mover/failed_pinned"), &mv.FailedPinned},
		{t.Counter("mover/failed_vanished"), &mv.FailedVanished},
		{t.Counter("mover/failed_split"), &mv.FailedSplit},
		{t.Counter("mover/retries"), &mv.Retried},
		{t.Counter("mover/retry_succeeded"), &mv.RetrySucceeded},
		{t.Counter("mover/retry_superseded"), &mv.RetrySuperseded},
		{t.Counter("mover/retry_dropped"), &mv.RetryDropped},
		{t.Counter("mover/tx_started"), &mv.TxStarted},
		{t.Counter("mover/tx_committed"), &mv.TxCommitted},
		{t.Counter("mover/aborted_dirty"), &mv.AbortedDirty},
		{t.Counter("mover/tx_remap_failed"), &mv.TxRemapFailed},
		{t.Counter("mover/shadow_hits"), &mv.ShadowHits},
		{t.Counter("mover/shadow_stale"), &mv.ShadowStale},
		{t.Counter("mover/admitted_promotions"), &mv.AdmittedPromotions},
		{t.Counter("mover/admitted_demotions"), &mv.AdmittedDemotions},
		{t.Counter("mover/deferred_admission"), &mv.DeferredAdmission},
		{t.Counter("mover/rejected_promotions"), &mv.RejectedPromotions},
		{t.Counter("mover/rejected_demotions"), &mv.RejectedDemotions},
	}
	mv.ctrOverhead = t.Counter("mover/overhead_ns")
	mv.histRetryLat = t.Histogram("mover/retry_latency_epochs")
	mv.histInter = t.Histogram("mover/interarrival_ns")
}

// SetProvenance attaches the decision-provenance flight recorder. nil
// (the default) records nothing; the hooks are record-only either way.
func (mv *Mover) SetProvenance(r *provenance.Recorder) { mv.prov = r }

// SetFaultPlane attaches the fault-injection plane. nil (the default)
// injects nothing.
func (mv *Mover) SetFaultPlane(p *fault.Plane) { mv.faults = p }

// NewMover builds a mover with the paper's 50 us per-page cost.
func NewMover(m *cpu.Machine) *Mover {
	return &Mover{machine: m, CostPerPageNS: 50_000, MaxRetries: 3, RetryQueueCap: 256}
}

// RetryQueueLen returns the number of deferred migrations waiting.
func (mv *Mover) RetryQueueLen() int { return len(mv.retries) }

// migrate moves one mapped page to the target tier, splitting a huge
// mapping first (Linux migrates THP by splitting unless the whole
// 2 MiB moves; hot subpages rarely cover a whole huge page, so the
// mover splits). The caller batches the shootdown. It returns why the
// migration failed, or FailNone when the page landed.
func (mv *Mover) migrate(key core.PageKey, target mem.TierID) provenance.FailReason {
	phys := mv.machine.Phys
	table, ok := mv.machine.Tables()[key.PID]
	if !ok {
		return provenance.FailVanished
	}
	pte, huge := table.Resolve(key.VPN)
	if pte == nil {
		return provenance.FailVanished
	}
	if huge {
		if mv.faults.FailSplit() {
			// The split raced something holding a reference to the
			// compound page; the whole migration bails before any
			// page-table mutation.
			return provenance.FailSplit
		}
		table.SplitHuge(key.VPN)
		mv.Splits++
		// A split is roughly one page move of work.
		mv.OverheadNS += mv.machine.SoftCost(mv.CostPerPageNS)
	}
	oldPFN, ok := table.Frame(key.VPN)
	if !ok {
		return provenance.FailVanished
	}
	if phys.TierOf(oldPFN) == target {
		return provenance.FailNone
	}
	// A non-migratable frame, or a transient elevated refcount (DMA,
	// gup): the EBUSY case.
	if phys.Flags(oldPFN)&mem.FlagNonMigratable != 0 || mv.faults.PinPage() {
		return provenance.FailPinned
	}
	if mv.Transactional {
		return mv.migrateTx(table, key, target, oldPFN)
	}
	newPFN, err := phys.AllocIn(target, key.PID, key.VPN)
	if err != nil {
		return allocFail(err)
	}
	phys.CarryProfile(newPFN, oldPFN)

	if !table.Remap(key.VPN, newPFN) {
		phys.Free(newPFN)
		return provenance.FailVanished
	}
	phys.Free(oldPFN)
	mv.OverheadNS += mv.machine.SoftCost(mv.CostPerPageNS)
	return provenance.FailNone
}

// allocFail is the migration failure an AllocIn error stands for: a
// tier that refused a frame (mem.ErrTierFull) is capacity; any other
// allocator error is a page the mover cannot reason about.
func allocFail(err error) provenance.FailReason {
	if errors.Is(err, mem.ErrTierFull) {
		return provenance.FailCapacity
	}
	return provenance.FailVanished
}

// migrateTx is the transactional migration engine (the Nomad model):
// the page stays mapped and accessible for the whole copy, and the
// transaction only publishes the new frame after verifying the copy is
// still clean. The phases are
//
//	claim      — allocate the target frame (abort: nothing happened)
//	copy       — copy content while the page stays mapped; this is
//	             the work the admission budget prices
//	verify     — deterministic dirty-check against the fault plane:
//	             a page written mid-copy aborts with FailCopyAbort
//	             and the caller re-queues the transaction
//	remap      — publish the new frame (the batch shootdown makes it
//	             globally visible at epoch end)
//	release    — free the source frame; a promotion keeps it as a
//	             non-exclusive shadow copy instead, so demoting the
//	             still-clean page back is a remap with zero copy work
//
// A demotion whose page still has a valid shadow in the target tier
// skips the copy entirely and adopts the shadow (drawing the
// shadow-stale site first: an invalidated shadow degrades to the full
// transaction). The caller has already resolved the mapping, split any
// huge page, and cleared the pinned checks.
func (mv *Mover) migrateTx(table *pagetable.Table, key core.PageKey, target mem.TierID, oldPFN mem.PFN) provenance.FailReason {
	phys := mv.machine.Phys
	promote := target < phys.TierOf(oldPFN)
	if !promote {
		if spfn, ok := phys.ShadowFor(oldPFN, target); ok {
			if mv.faults.StaleShadow() {
				// The shadow went stale at the worst moment; pay the
				// full copy below.
				phys.InvalidateShadowOf(oldPFN)
				mv.ShadowStale++
			} else {
				if !table.Remap(key.VPN, spfn) {
					return provenance.FailVanished
				}
				phys.AdoptShadow(oldPFN)
				phys.Free(oldPFN)
				mv.ShadowHits++
				// Zero copy work: no CostPerPageNS charge. The epoch's
				// batch shootdown covers the remap.
				return provenance.FailNone
			}
		}
	}
	newPFN, err := phys.AllocIn(target, key.PID, key.VPN)
	if err != nil {
		return allocFail(err)
	}
	mv.TxStarted++
	// The copy happens (and is paid for) before the dirty-check: an
	// aborted transaction has burned real bandwidth, which is exactly
	// why aborts hurt and admission budgets matter.
	mv.OverheadNS += mv.machine.SoftCost(mv.CostPerPageNS)
	if mv.faults.DirtyCopy() {
		phys.Free(newPFN)
		return provenance.FailCopyAbort
	}
	phys.CarryProfile(newPFN, oldPFN)
	if !table.Remap(key.VPN, newPFN) {
		phys.Free(newPFN)
		mv.TxRemapFailed++
		return provenance.FailVanished
	}
	mv.TxCommitted++
	if promote {
		phys.MakeShadow(oldPFN, newPFN)
	} else {
		phys.Free(oldPFN)
	}
	return provenance.FailNone
}

// deferRetry queues a transiently failed migration for a later epoch
// and reports whether it was queued. attempts counts failures so far;
// backoff doubles per attempt (1, 2, 4, ... epochs), so a page failing
// repeatedly consumes geometrically less mover attention. Both caps
// drop deterministically into RetryDropped.
func (mv *Mover) deferRetry(key core.PageKey, promote bool, attempts int, firstFail uint64) bool {
	if attempts >= mv.MaxRetries || len(mv.retries) >= mv.RetryQueueCap {
		mv.RetryDropped++
		return false
	}
	mv.retries = append(mv.retries, retryEntry{
		key:       key,
		promote:   promote,
		attempts:  attempts,
		due:       mv.epoch + 1<<uint(attempts-1),
		firstFail: firstFail,
	})
	return true
}

// noteSuccess records one successful migration everywhere it is
// observable: the telemetry migration event (exactly where and how the
// pre-provenance mover emitted it), the inter-arrival histogram, and
// the flight recorder.
func (mv *Mover) noteSuccess(key core.PageKey, promote bool, to mem.TierID) {
	now := mv.machine.Now()
	if mv.lastMigNS > 0 && now >= mv.lastMigNS {
		mv.histInter.Observe(uint64(now - mv.lastMigNS))
	}
	mv.lastMigNS = now
	mv.tel.EmitMigration(now, key.PID, uint64(key.VPN), promote)
	mv.prov.NoteMove(key, promote, to)
}

// failAndMaybeRetry counts one failed migration under its reason,
// queues it for a deferred retry unless its mapping vanished (nothing
// is left to move), and records the outcome in the flight recorder.
func (mv *Mover) failAndMaybeRetry(key core.PageKey, promote bool, reason provenance.FailReason, attempts int, firstFail uint64) {
	mv.Failed++
	switch reason {
	case provenance.FailCapacity:
		mv.FailedCapacity++
	case provenance.FailPinned:
		mv.FailedPinned++
	case provenance.FailSplit:
		mv.FailedSplit++
	case provenance.FailCopyAbort:
		mv.AbortedDirty++
	default:
		mv.FailedVanished++
	}
	v := provenance.VerdictFailed
	if reason != provenance.FailVanished && mv.deferRetry(key, promote, attempts, firstFail) {
		v = provenance.VerdictDeferred
	}
	mv.prov.Note(key, v, reason)
}

// demoteCand is one demotion candidate with its rank precomputed
// (fillRanks), so the coldest-first ordering does one ranks lookup per
// candidate instead of O(n log n) lookups inside a sort comparator.
type demoteCand struct {
	key  core.PageKey
	rank uint64
}

// candidates gathers the epoch's per-tier migration columns, each in
// ascending PFN order: demote[t] holds tier t's unselected pages for
// every tier above the bottom, promote[t] the selected pages resident in
// tier t for every tier below the top. Pinned frames and keys in queued
// (owned by the retry queue this epoch) are in neither. On a two-tier
// machine these are the fast-tier demote list and the slow-tier promote
// list. The columns are the mover's scratch, truncated and refilled per
// call: they stay valid until the next call.
//
// The cost tracks the selection and the upper tiers, not the footprint.
// Demotion candidates come from walking tiers 0..last-1; the bottom tier
// cannot demote. Promotion candidates come from the selection itself:
// each key resolves through its page table to a frame, and sorting those
// frames gives exactly the order a walk over every allocated frame would
// have filled each column in, because mappings and allocated frames are
// in bijection (fault/invariant checks it). Ranks stay zero; the caller
// fills them only for a tier that must demote.
func (mv *Mover) candidates(sel Selection, queued map[core.PageKey]struct{}) (demote [][]demoteCand, promote [][]core.PageKey) {
	phys := mv.machine.Phys
	nt := phys.Tiers()
	if len(mv.demoteCols) != nt {
		mv.demoteCols = make([][]demoteCand, nt)
		mv.promoteCols = make([][]core.PageKey, nt)
	}
	demote, promote = mv.demoteCols, mv.promoteCols
	isQueued := func(k core.PageKey) bool {
		_, ok := queued[k]
		return ok
	}
	for t := 0; t < nt-1; t++ {
		cands := demote[t][:0]
		phys.ForEachAllocatedIn(mem.TierID(t), func(pfn mem.PFN, pd *mem.PageDescriptor) {
			if phys.Flags(pfn)&mem.FlagNonMigratable != 0 {
				return
			}
			key := core.PageKey{PID: int(pd.PID), VPN: pd.VPage}
			if _, selected := sel[key]; selected || isQueued(key) {
				return
			}
			cands = append(cands, demoteCand{key: key})
		})
		demote[t] = cands
	}

	tables := mv.machine.Tables()
	frames := mv.frames[:0]
	// Map order cannot escape: the frames are sorted by PFN before any
	// column is filled.
	for key := range sel {
		table, ok := tables[key.PID]
		if !ok {
			continue
		}
		pfn, ok := table.Frame(key.VPN)
		if !ok {
			continue
		}
		if f := phys.Flags(pfn); f&mem.FlagAllocated == 0 || f&mem.FlagNonMigratable != 0 || phys.TierOf(pfn) == mem.FastTier || isQueued(key) {
			continue
		}
		frames = append(frames, pfn)
	}
	slices.Sort(frames)
	mv.frames = frames
	for t := range promote {
		promote[t] = promote[t][:0]
	}
	for _, pfn := range frames {
		pd, t := phys.Page(pfn), phys.TierOf(pfn)
		promote[t] = append(promote[t], core.PageKey{PID: int(pd.PID), VPN: pd.VPage})
	}
	return demote, promote
}

// fillRanks reads each candidate's epoch rank. Apart from the
// MinPromoteRank gate, it is the mover's only read of the rank table,
// so an epoch in which no tier demotes never builds the table.
func fillRanks(cands []demoteCand, ranks core.Ranks) {
	for i := range cands {
		cands[i].rank = ranks.Get(cands[i].key)
	}
}

// retryTarget picks the adjacent tier a deferred migration aims for
// now: one tier toward the top of the chain for promotes, one toward
// the bottom for demotes, from wherever the page currently sits (it
// may have moved since the failure, in which case the clamp makes the
// retry a cheap already-there success). A page whose mapping is gone
// falls back to the chain ends and lets migrate classify the vanish.
// Read-only — no fault draws, so a two-tier machine reproduces the
// legacy fast/slow retry targets exactly.
func (mv *Mover) retryTarget(key core.PageKey, promote bool, last mem.TierID) mem.TierID {
	if table, ok := mv.machine.Tables()[key.PID]; ok {
		if pfn, ok := table.Frame(key.VPN); ok {
			t := mv.machine.Phys.TierOf(pfn)
			if promote {
				if t == mem.FastTier {
					return mem.FastTier
				}
				return t - 1
			}
			if t >= last {
				return last
			}
			return t + 1
		}
	}
	if promote {
		return mem.FastTier
	}
	return last
}

// ApplySelection reconciles physical placement with a policy's tier-1
// selection across the whole tier chain: replays due deferred retries
// first, then demotes unselected pages coldest-first one tier down
// (making room, deepest tiers first so spilled frames land before
// they are claimed), then promotes selected pages one tier up, then
// issues one shootdown for the whole epoch's batch. All movement is
// between adjacent tiers: a selected page deep in the chain climbs one
// tier per epoch rather than teleporting to the top — the stepwise
// regime multi-tier managers use, which keeps every middle tier a
// useful staging ground and every migration's cost uniform. ranks
// supplies the epoch's hotness per page (missing keys count as zero,
// i.e. coldest); it protects hot-but-unsampled residents from being
// evicted to fit a handful of promotions. It is read only for a tier
// that must demote, and for the MinPromoteRank gate when that is set,
// so an epoch that demotes nothing never builds a lazy core.RanksOf
// table. It returns (promoted, demoted), retries included.
func (mv *Mover) ApplySelection(sel Selection, ranks core.Ranks) (int, int) {
	mv.epoch++
	mv.admSpentPromote, mv.admSpentDemote = 0, 0 // the admission budget is per-epoch
	gated := mv.admissionGated()
	phys := mv.machine.Phys
	nt := phys.Tiers()
	last := mem.TierID(nt - 1)
	promoted, demoted := 0, 0

	// Replay the deferred-retry queue. Entries whose selection has
	// reversed direction are superseded (the fresh pass owns the page
	// again); entries not yet due stay queued and keep the page out of
	// the fresh pass, so one page is never attempted twice per epoch.
	// FIFO order within an epoch keeps replay deterministic. The whole
	// block is skipped — no allocation — when the queue is empty,
	// which is every epoch of a failure-free run.
	var queuedKeys map[core.PageKey]struct{}
	if len(mv.retries) > 0 {
		keep := mv.retries[:0]
		due := mv.due[:0]
		for _, e := range mv.retries {
			if _, selected := sel[e.key]; e.promote != selected {
				mv.RetrySuperseded++
				mv.prov.Note(e.key, provenance.VerdictSuperseded, provenance.FailNone)
				continue
			}
			if e.due <= mv.epoch {
				due = append(due, e)
			} else {
				keep = append(keep, e)
				// Still waiting out its backoff: that is this epoch's
				// verdict for the page.
				mv.prov.Note(e.key, provenance.VerdictDeferred, provenance.FailNone)
			}
		}
		mv.retries = keep
		mv.due = due
		if len(due)+len(keep) > 0 {
			if mv.queuedKeys == nil {
				mv.queuedKeys = make(map[core.PageKey]struct{}, len(due)+len(keep))
			} else {
				clear(mv.queuedKeys)
			}
			queuedKeys = mv.queuedKeys
			for _, e := range keep {
				queuedKeys[e.key] = struct{}{}
			}
		}
		for _, e := range due {
			queuedKeys[e.key] = struct{}{}
			target := mv.retryTarget(e.key, e.promote, last)
			if gated && !mv.admit(e.promote, mv.migrationCostNS(e.key, target)) {
				// Not an attempt — the bus was busy, the entry waits
				// another epoch with its attempt count intact.
				mv.deferAdmission(e.key, e.promote, e.attempts, e.firstFail)
				continue
			}
			mv.Retried++
			if f := mv.migrate(e.key, target); f != provenance.FailNone {
				mv.failAndMaybeRetry(e.key, e.promote, f, e.attempts+1, e.firstFail)
				continue
			}
			mv.RetrySucceeded++
			if e.promote {
				promoted++
			} else {
				demoted++
			}
			mv.histRetryLat.Observe(mv.epoch - e.firstFail)
			mv.noteSuccess(e.key, e.promote, target)
		}
	}

	demoteByTier, promoteByTier := mv.candidates(sel, queuedKeys)
	if mv.MinPromoteRank > 0 {
		for t, keys := range promoteByTier {
			// Not enough evidence to pay for the move.
			promoteByTier[t] = slices.DeleteFunc(keys, func(k core.PageKey) bool {
				return ranks.Get(k) < mv.MinPromoteRank
			})
		}
	}
	coldest := func(a, b demoteCand) bool {
		return core.ColdestLess(a.rank, b.rank, a.key, b.key)
	}

	// Plan demotion demand bottom-up: the room tier t must free is
	// the promotions arriving from t+1 plus the demotions spilling in
	// from t-1, less its free frames, clamped to the candidates it
	// actually has. The plan is optimistic — failed migrations leave
	// less room than planned and the shortfall surfaces as capacity
	// failures that retry next epoch, exactly the two-tier behavior.
	if len(mv.plan) != nt {
		mv.plan = make([]int, nt)
	}
	plan := mv.plan
	for t := 0; t < nt-1; t++ {
		incoming := len(promoteByTier[t+1])
		if t > 0 {
			incoming += plan[t-1]
		}
		plan[t] = min(max(incoming-phys.FreeFrames(mem.TierID(t)), 0), len(demoteByTier[t]))
	}

	// Deep demote pre-pass, deepest tier first (n-2 .. 1), so every
	// spilled frame lands in its lower tier before that tier's own
	// spill capacity is consumed. Empty on a two-tier machine.
	for t := nt - 2; t >= 1; t-- {
		if plan[t] == 0 {
			continue
		}
		fillRanks(demoteByTier[t], ranks)
		for _, cand := range core.TopKFunc(demoteByTier[t], plan[t], coldest) {
			if mv.migrateFresh(cand.key, false, mem.TierID(t)+1, gated) {
				demoted++
			}
		}
	}

	// Top-of-chain demotions make room in tier 0 for the promotions
	// climbing out of tier 1. Only demote as many pages as needed to
	// fit them plus any fast-tier overflow: that bound is known up
	// front, so bounded selection pulls just the needed coldest
	// candidates out of the (much larger) resident set instead of fully
	// sorting it. Every candidate past the bound is only ever consumed
	// when a migration fails (vanished mapping, full target tier); the
	// fallback below sorts the remainder lazily so the demotion
	// sequence stays exactly the coldest-first order a full sort would
	// have produced. Ranks are read on the first pass only, so an epoch
	// that demotes nothing from tier 0 never builds the table.
	var head, rest []demoteCand
	restSorted := false
	for next := 0; phys.FreeFrames(mem.FastTier) < len(promoteByTier[1]); next++ {
		if next == 0 {
			fillRanks(demoteByTier[0], ranks)
			head = core.TopKFunc(demoteByTier[0], plan[0], coldest)
			rest = demoteByTier[0][len(head):]
		}
		var cand demoteCand
		if next < len(head) {
			cand = head[next]
		} else {
			if !restSorted {
				rest = core.TopKFunc(rest, len(rest), coldest)
				restSorted = true
			}
			j := next - len(head)
			if j >= len(rest) {
				break
			}
			cand = rest[j]
		}
		if mv.migrateFresh(cand.key, false, mem.SlowTier, gated) {
			demoted++
		}
	}

	// One promote pass, tier 1 first, each column climbing one tier.
	// The demotions above planned room in the destination tiers; when
	// they fell short the capacity failure defers the climb to the next
	// epoch.
	for t := mem.TierID(1); t <= last; t++ {
		for _, key := range promoteByTier[t] {
			if mv.migrateFresh(key, true, t-1, gated) {
				promoted++
			}
		}
	}
	mv.Promotions += uint64(promoted)
	mv.Demotions += uint64(demoted)

	if promoted+demoted > 0 {
		// One shootdown covers the whole epoch's batch.
		cost := mv.machine.FlushAllTLBs()
		mv.Shootdowns++
		mv.OverheadNS += cost
		mv.tel.EmitShootdown(mv.machine.Now(), cost, promoted+demoted)
	}
	if mv.OverheadNS > 0 {
		mv.machine.Core(0).AdvanceClock(mv.chargeDelta())
	}
	for _, c := range mv.counters {
		c.ctr.Set(*c.field)
	}
	mv.ctrOverhead.Set(uint64(mv.OverheadNS))
	return promoted, demoted
}

// migrateFresh runs one fresh (not retried) migration of key to the
// adjacent target tier and reports whether it landed. The side effects
// keep a fixed order, because every fault site is one deterministic
// stream: admission first, then for a promotion the capacity check (a
// full target tier fails as capacity without drawing), then migrate's
// fault draws. Failures route through the retry queue as first
// attempts.
func (mv *Mover) migrateFresh(key core.PageKey, promote bool, target mem.TierID, gated bool) bool {
	if gated && !mv.admit(promote, mv.migrationCostNS(key, target)) {
		mv.deferAdmission(key, promote, 0, mv.epoch)
		return false
	}
	if promote && mv.machine.Phys.FreeFrames(target) == 0 {
		mv.failAndMaybeRetry(key, true, provenance.FailCapacity, 1, mv.epoch)
		return false
	}
	if f := mv.migrate(key, target); f != provenance.FailNone {
		mv.failAndMaybeRetry(key, promote, f, 1, mv.epoch)
		return false
	}
	mv.noteSuccess(key, promote, target)
	return true
}

// chargeDelta charges newly accumulated overhead exactly once.
func (mv *Mover) chargeDelta() int64 {
	d := mv.OverheadNS - mv.charged
	mv.charged = mv.OverheadNS
	return d
}
