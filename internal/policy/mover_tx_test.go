package policy

import (
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/provenance"
	"tieredmem/internal/trace"
)

// conserveTiers asserts used + free + shadow == capacity on every tier
// — the allocator-level half of the shadow-frame conservation law the
// epoch invariant checker enforces end to end.
func conserveTiers(t *testing.T, phys *mem.PhysMem) {
	t.Helper()
	for i := 0; i < phys.Tiers(); i++ {
		id := mem.TierID(i)
		used, free, shadow := phys.UsedFrames(id), phys.FreeFrames(id), phys.ShadowFrames(id)
		if cap := phys.TierSpecOf(id).Frames; used+free+shadow != cap {
			t.Fatalf("tier %d: used %d + free %d + shadow %d != cap %d", i, used, free, shadow, cap)
		}
	}
}

// txRanks keeps vpn 0..2 hot, vpn 3 coldest, vpn 4 warm: epoch-1
// promotions evict vpn 3 and epoch-2 demotion pressure picks vpn 4.
func txRanks() core.Ranks {
	return core.RanksFromMap(map[core.PageKey]uint64{
		{PID: 1, VPN: 0}: 10,
		{PID: 1, VPN: 1}: 10,
		{PID: 1, VPN: 2}: 10,
		{PID: 1, VPN: 3}: 0,
		{PID: 1, VPN: 4}: 5,
		{PID: 1, VPN: 5}: 7,
	})
}

// TestTxShadowZeroCopyDemotion pins the shadow fast path's central
// promise: demoting a clean page back to the tier that still holds its
// shadow is a remap — zero copy work, the page lands on its original
// frame, and no overhead is charged for it.
func TestTxShadowZeroCopyDemotion(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 6) // 0..3 fast, 4..5 slow
	mv := NewMover(m)
	mv.Transactional = true

	// Epoch 1: promote vpn 4. Its vacated slow frame stays behind as a
	// shadow; making room demotes vpn 3 (coldest) with a full copy.
	oldSlowPFN, _ := m.Table(1).Frame(4)
	mv.ApplySelection(Selection{core.PageKey{PID: 1, VPN: 4}: {}}, txRanks())
	if tierOf(t, m, 1, 4) != mem.FastTier {
		t.Fatal("vpn 4 not promoted")
	}
	if got := m.Phys.ShadowFrames(mem.SlowTier); got != 1 {
		t.Fatalf("ShadowFrames(slow) = %d, want 1 (the vacated promotion frame)", got)
	}
	fastPFN, _ := m.Table(1).Frame(4)
	if spfn, ok := m.Phys.ShadowFor(fastPFN, mem.SlowTier); !ok || spfn != oldSlowPFN {
		t.Fatalf("ShadowFor = (%d, %v), want the vacated frame %d", spfn, ok, oldSlowPFN)
	}
	epoch1 := mv.OverheadNS // two full copies: promote vpn 4 + demote vpn 3

	// Epoch 2: promoting vpn 5 pressures one demotion; vpn 4 is the
	// coldest fast resident and its shadow is still valid, so the
	// demotion adopts it copy-free.
	mv.ApplySelection(Selection{core.PageKey{PID: 1, VPN: 5}: {}}, txRanks())
	if mv.ShadowHits != 1 {
		t.Fatalf("ShadowHits = %d, want 1", mv.ShadowHits)
	}
	if pfn, _ := m.Table(1).Frame(4); pfn != oldSlowPFN {
		t.Errorf("demoted vpn 4 landed on PFN %d, want its shadow frame %d", pfn, oldSlowPFN)
	}
	// Both epochs do one promote + one demote + one batch shootdown,
	// but epoch 2's demotion adopted the shadow: it must have charged
	// exactly one page-copy fee less than epoch 1.
	charge := m.SoftCost(mv.CostPerPageNS)
	if delta := mv.OverheadNS - epoch1; epoch1-delta != charge {
		t.Errorf("epoch 2 overhead %d vs epoch 1's %d: want exactly one copy charge (%d) saved", delta, epoch1, charge)
	}
	if mv.TxStarted != mv.TxCommitted+mv.AbortedDirty+mv.TxRemapFailed {
		t.Errorf("tx conservation broken: started=%d committed=%d aborted=%d remapfail=%d",
			mv.TxStarted, mv.TxCommitted, mv.AbortedDirty, mv.TxRemapFailed)
	}
	conserveTiers(t, m.Phys)
}

// TestTxShadowInvalidatedOnWrite pins the write half of the shadow
// lifecycle: the first dirtying store (a D-bit 0->1 walk) invalidates
// the shadow, so the later demotion pays the full copy.
func TestTxShadowInvalidatedOnWrite(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 6)
	mv := NewMover(m)
	mv.Transactional = true
	mv.ApplySelection(Selection{core.PageKey{PID: 1, VPN: 4}: {}}, txRanks())
	if m.Phys.ShadowFrames(mem.SlowTier) != 1 {
		t.Fatal("promotion left no shadow")
	}
	// Dirty the promoted page: its shadow no longer matches.
	if _, err := m.Execute(trace.Ref{PID: 1, VAddr: 4 * 4096, Kind: trace.Store}); err != nil {
		t.Fatal(err)
	}
	if got := m.Phys.ShadowFrames(mem.SlowTier); got != 0 {
		t.Fatalf("ShadowFrames(slow) = %d after a dirtying store, want 0", got)
	}
	mv.ApplySelection(Selection{core.PageKey{PID: 1, VPN: 5}: {}}, txRanks())
	if mv.ShadowHits != 0 {
		t.Errorf("ShadowHits = %d after invalidation, want 0 (full copy path)", mv.ShadowHits)
	}
	if tierOf(t, m, 1, 4) != mem.SlowTier {
		t.Errorf("vpn 4 not demoted after shadow invalidation")
	}
	conserveTiers(t, m.Phys)
}

// TestTxRetrySupersededRacesShadowInvalidation drives the three-way
// race the retry queue must absorb: a demotion fails transiently and
// queues, the page's shadow is invalidated by a store while the entry
// waits, and the policy re-selects the page before the retry is due.
// The queued demotion must be superseded — not replayed against the
// now-missing shadow — and the allocator must stay conserved.
func TestTxRetrySupersededRacesShadowInvalidation(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 6)
	mv := NewMover(m)
	mv.Transactional = true

	// Epoch 1: promote vpn 4 (shadow made in the slow tier).
	mv.ApplySelection(Selection{core.PageKey{PID: 1, VPN: 4}: {}}, txRanks())
	if m.Phys.ShadowFrames(mem.SlowTier) != 1 {
		t.Fatal("promotion left no shadow")
	}

	// Epoch 2: every migration is transiently pinned; the demotion of
	// vpn 4 (pressured by promoting vpn 5) fails and queues.
	spec, _ := fault.ParseSpec("mem.pinned=1")
	mv.SetFaultPlane(fault.New(spec, 1))
	mv.ApplySelection(Selection{core.PageKey{PID: 1, VPN: 5}: {}}, txRanks())
	if mv.FailedPinned == 0 || mv.RetryQueueLen() == 0 {
		t.Fatalf("pinned epoch queued nothing: pinned=%d queue=%d", mv.FailedPinned, mv.RetryQueueLen())
	}

	// While the retry waits, a store invalidates the shadow.
	if _, err := m.Execute(trace.Ref{PID: 1, VAddr: 4 * 4096, Kind: trace.Store}); err != nil {
		t.Fatal(err)
	}
	if m.Phys.ShadowFrames(mem.SlowTier) != 0 {
		t.Fatal("store did not invalidate the shadow")
	}

	// Epoch 3: the policy re-selects vpn 4 — the queued demotion has
	// reversed direction and must be superseded, never replayed.
	mv.SetFaultPlane(nil)
	mv.ApplySelection(Selection{
		core.PageKey{PID: 1, VPN: 4}: {},
		core.PageKey{PID: 1, VPN: 5}: {},
	}, txRanks())
	if mv.RetrySuperseded == 0 {
		t.Error("reversed queued demotion was not superseded")
	}
	if tierOf(t, m, 1, 4) != mem.FastTier {
		t.Error("superseded demotion still moved vpn 4 out of the fast tier")
	}
	if mv.ShadowHits != 0 {
		t.Errorf("ShadowHits = %d, want 0 (the shadow was gone)", mv.ShadowHits)
	}
	conserveTiers(t, m.Phys)
}

// TestTxAdmissionQueueOverflowRejects pins the controller's overflow
// behavior: with a budget too small to admit any copy and a tiny retry
// queue, the first denials defer (verdict deferred:admission) until
// the queue fills, and every later denial rejects outright (verdict
// rejected:admission) rather than hoarding an unbounded backlog.
func TestTxAdmissionQueueOverflowRejects(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 8) // 0..3 fast, 4..7 slow
	mv := NewMover(m)
	mv.Transactional = true
	mv.AdmissionBudgetNS = 1 // admits only zero-cost migrations
	mv.RetryQueueCap = 2
	rec := provenance.New()
	mv.SetProvenance(rec)

	rec.BeginEpoch(0, core.MethodCombined, core.MethodCombined, 0)
	sel := Selection{
		{PID: 1, VPN: 4}: {},
		{PID: 1, VPN: 5}: {},
		{PID: 1, VPN: 6}: {},
		{PID: 1, VPN: 7}: {},
	}
	promoted, demoted := mv.ApplySelection(sel, core.Ranks{})
	rec.FinishEpoch()

	if promoted != 0 || demoted != 0 {
		t.Fatalf("migrations ran under a 1ns budget: %d/%d", promoted, demoted)
	}
	if mv.DeferredAdmission != 2 || mv.RetryQueueLen() != 2 {
		t.Fatalf("deferred=%d queue=%d, want the queue cap 2/2", mv.DeferredAdmission, mv.RetryQueueLen())
	}
	if mv.RejectedPromotions+mv.RejectedDemotions == 0 {
		t.Fatal("queue overflow rejected nothing")
	}
	lg := rec.Snapshot("test")
	var sawDeferred, sawRejected bool
	for i := range lg.Pages {
		for _, r := range lg.Pages[i].Records {
			switch r.Verdict.Reason(r.Fail) {
			case "deferred:admission":
				sawDeferred = true
			case "rejected:admission":
				sawRejected = true
			}
		}
	}
	if !sawDeferred || !sawRejected {
		t.Errorf("provenance verdicts incomplete: deferred=%v rejected=%v", sawDeferred, sawRejected)
	}
}

// TestTxMaxRetriesExhaustionCopyAbort pins the abort-to-failure chain:
// with every copy dirtied mid-flight and one retry allowed, the
// transaction aborts, the retry budget exhausts, and the page's final
// provenance verdict is failed:mem.copyabort (the verdict stays failed
// because deferRetry refused the entry).
func TestTxMaxRetriesExhaustionCopyAbort(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 6)
	mv := NewMover(m)
	mv.Transactional = true
	mv.MaxRetries = 1
	spec, _ := fault.ParseSpec("mem.copyabort=1")
	mv.SetFaultPlane(fault.New(spec, 1))
	rec := provenance.New()
	mv.SetProvenance(rec)

	// migrate returns the abort as its reason (probe on a throwaway
	// mover so the main mover's tx accounting stays exact).
	probe := NewMover(m)
	probe.Transactional = true
	probe.SetFaultPlane(fault.New(spec, 1))
	if f := probe.migrate(core.PageKey{PID: 1, VPN: 3}, mem.SlowTier); f != provenance.FailCopyAbort {
		t.Fatalf("rate-1 dirty copy: got %v, want FailCopyAbort", f)
	}

	rec.BeginEpoch(0, core.MethodCombined, core.MethodCombined, 0)
	mv.ApplySelection(Selection{core.PageKey{PID: 1, VPN: 4}: {}}, txRanks())
	rec.FinishEpoch()

	if mv.AbortedDirty == 0 || mv.RetryDropped == 0 {
		t.Fatalf("aborted=%d dropped=%d, want both > 0", mv.AbortedDirty, mv.RetryDropped)
	}
	if mv.TxStarted != mv.TxCommitted+mv.AbortedDirty+mv.TxRemapFailed {
		t.Errorf("tx conservation broken: started=%d committed=%d aborted=%d remapfail=%d",
			mv.TxStarted, mv.TxCommitted, mv.AbortedDirty, mv.TxRemapFailed)
	}
	if mv.Failed != mv.FailedCapacity+mv.FailedPinned+mv.FailedVanished+mv.FailedSplit+mv.AbortedDirty {
		t.Errorf("Failed=%d not partitioned by reason counters (+AbortedDirty)", mv.Failed)
	}
	lg := rec.Snapshot("test")
	found := false
	for i := range lg.Pages {
		for _, r := range lg.Pages[i].Records {
			if r.Verdict.Reason(r.Fail) == "failed:mem.copyabort" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no page carries the failed:mem.copyabort verdict after retry exhaustion")
	}
	conserveTiers(t, m.Phys)
}
