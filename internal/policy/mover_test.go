package policy

import (
	"testing"

	"tieredmem/internal/cache"
	"tieredmem/internal/core"
	"tieredmem/internal/cpu"
	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/provenance"
	"tieredmem/internal/tlb"
	"tieredmem/internal/trace"
)

func moverMachine(t *testing.T, fast, slow int) *cpu.Machine {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.Cores = 2
	cfg.PrefetchDegree = 0
	cfg.CtxSwitchNS = 0
	cfg.L1D = cache.Config{SizeBytes: 4 << 10, Ways: 2}
	cfg.L2 = cache.Config{SizeBytes: 16 << 10, Ways: 4}
	cfg.LLC = cache.Config{SizeBytes: 64 << 10, Ways: 4}
	cfg.L1TLB = tlb.Config{Entries: 16, Ways: 4}
	cfg.L2TLB = tlb.Config{Entries: 64, Ways: 4}
	m, err := cpu.NewMachine(cfg, mem.DefaultTiers(fast, slow))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func touchPages(t *testing.T, m *cpu.Machine, pid int, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := m.Execute(trace.Ref{PID: pid, VAddr: uint64(i) * 4096, Kind: trace.Load}); err != nil {
			t.Fatal(err)
		}
	}
}

func tierOf(t *testing.T, m *cpu.Machine, pid int, vpn mem.VPN) mem.TierID {
	t.Helper()
	pfn, ok := m.Table(pid).Frame(vpn)
	if !ok {
		t.Fatalf("vpn %d not mapped", vpn)
	}
	return m.Phys.TierOf(pfn)
}

func TestMoverPromotesSelected(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 8) // pages 4..7 spill to slow
	mv := NewMover(m)
	// Select two slow pages for tier 1.
	sel := Selection{
		core.PageKey{PID: 1, VPN: 5}: {},
		core.PageKey{PID: 1, VPN: 6}: {},
	}
	promoted, demoted := mv.ApplySelection(sel, core.Ranks{})
	if promoted != 2 {
		t.Fatalf("promoted %d, want 2", promoted)
	}
	if demoted < 2 {
		t.Fatalf("demoted %d, want >= 2 to make room", demoted)
	}
	if tierOf(t, m, 1, 5) != mem.FastTier || tierOf(t, m, 1, 6) != mem.FastTier {
		t.Errorf("selected pages not in fast tier after ApplySelection")
	}
	if mv.Shootdowns != 1 {
		t.Errorf("Shootdowns = %d, want exactly 1 for the batch", mv.Shootdowns)
	}
}

func TestMoverDemotesColdestFirst(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 6) // pages 0..3 fast, 4..5 slow
	mv := NewMover(m)
	sel := Selection{core.PageKey{PID: 1, VPN: 4}: {}}
	ranks := core.RanksFromMap(map[core.PageKey]uint64{
		{PID: 1, VPN: 0}: 10,
		{PID: 1, VPN: 1}: 10,
		{PID: 1, VPN: 2}: 10,
		{PID: 1, VPN: 3}: 0, // coldest: must be the demotion victim
		{PID: 1, VPN: 4}: 5,
	})
	mv.ApplySelection(sel, ranks)
	if tierOf(t, m, 1, 3) != mem.SlowTier {
		t.Errorf("coldest resident not demoted")
	}
	if tierOf(t, m, 1, 0) != mem.FastTier {
		t.Errorf("hot resident demoted despite cold candidates")
	}
}

// TestMoverPromoteRankGate pins MinPromoteRank: a selected page whose
// rank falls below the gate stays put, one at the gate climbs, and
// the demotions make room for the promotion that passed only.
func TestMoverPromoteRankGate(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 6) // pages 0..3 fast, 4..5 slow
	mv := NewMover(m)
	mv.MinPromoteRank = 2
	sel := Selection{
		core.PageKey{PID: 1, VPN: 4}: {},
		core.PageKey{PID: 1, VPN: 5}: {},
	}
	ranks := core.RanksFromMap(map[core.PageKey]uint64{
		{PID: 1, VPN: 4}: 1,
		{PID: 1, VPN: 5}: 2,
	})
	promoted, demoted := mv.ApplySelection(sel, ranks)
	if promoted != 1 || demoted != 1 {
		t.Fatalf("promoted, demoted = %d, %d; want 1, 1", promoted, demoted)
	}
	if tierOf(t, m, 1, 4) != mem.SlowTier || tierOf(t, m, 1, 5) != mem.FastTier {
		t.Errorf("gate misapplied: vpn 4 in tier %d (rank 1), vpn 5 in tier %d (rank 2)",
			tierOf(t, m, 1, 4), tierOf(t, m, 1, 5))
	}
}

func TestMoverPreservesVirtualAddressAndState(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 6)
	oldPFN, _ := m.Table(1).Frame(4)
	m.Phys.TrackTrueTotals()
	pd := m.Phys.Page(oldPFN)
	pd.Epoch.True = 50
	m.Phys.ResetEpoch(oldPFN)
	pd.Epoch.Abit, pd.Epoch.Trace = 3, 4

	mv := NewMover(m)
	mv.ApplySelection(Selection{core.PageKey{PID: 1, VPN: 4}: {}}, core.Ranks{})

	newPFN, ok := m.Table(1).Frame(4)
	if !ok {
		t.Fatalf("virtual page vanished after migration")
	}
	if newPFN == oldPFN {
		t.Fatalf("page did not move")
	}
	npd := m.Phys.Page(newPFN)
	if npd.Epoch.Abit != 3 || npd.Epoch.Trace != 4 || m.Phys.TrueTotal(newPFN) != 50 {
		t.Errorf("profiling state lost in migration: %+v, total %d", npd, m.Phys.TrueTotal(newPFN))
	}
	if m.Phys.Allocated(oldPFN) {
		t.Errorf("old frame not freed")
	}
	// The page must still be usable after migration.
	if _, err := m.Execute(trace.Ref{PID: 1, VAddr: 4 * 4096, Kind: trace.Store}); err != nil {
		t.Fatalf("access after migration failed: %v", err)
	}
}

func TestMoverSplitsHugeMapping(t *testing.T) {
	m := moverMachine(t, 2*mem.HugePages, 2*mem.HugePages)
	m.SetHugeHint(func(pid int, vpn mem.VPN) bool { return true })
	if _, err := m.Execute(trace.Ref{PID: 1, VAddr: 0, Kind: trace.Load}); err != nil {
		t.Fatal(err)
	}
	if m.Table(1).HugeLeaves() != 1 {
		t.Fatalf("precondition: no huge leaf")
	}
	mv := NewMover(m)
	// Demote one 4 KiB page out of the huge mapping: forces a split.
	// (Selection holds everything except vpn 7.)
	sel := Selection{}
	for i := 0; i < mem.HugePages; i++ {
		if i != 7 {
			sel[core.PageKey{PID: 1, VPN: mem.VPN(i)}] = struct{}{}
		}
	}
	// Make room pressure so the demotion actually happens: fill the
	// fast tier's free space.
	for m.Phys.FreeFrames(mem.FastTier) > 0 {
		if _, err := m.Phys.AllocIn(mem.FastTier, 9, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Demote vpn 7 directly (ApplySelection only demotes under
	// promotion pressure; the split path is what is under test).
	if f := mv.migrate(core.PageKey{PID: 1, VPN: 7}, mem.SlowTier); f != provenance.FailNone {
		t.Fatalf("migrate: %v", f)
	}
	if m.Table(1).HugeLeaves() != 0 {
		t.Errorf("huge leaf survived a partial migration; THP split missing")
	}
	if mv.Splits != 1 {
		t.Errorf("Splits = %d, want 1", mv.Splits)
	}
	if tierOf(t, m, 1, 7) != mem.SlowTier {
		t.Errorf("migrated subpage not in slow tier")
	}
	// Neighbors still resolve to their original frames.
	if tierOf(t, m, 1, 8) != mem.FastTier {
		t.Errorf("neighbor subpage moved unexpectedly")
	}
}

func TestMoverFailsGracefullyOnUnmapped(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 6)
	mv := NewMover(m)
	sel := Selection{core.PageKey{PID: 99, VPN: 1}: {}} // nonexistent process
	promoted, _ := mv.ApplySelection(sel, core.Ranks{})
	if promoted != 0 {
		t.Errorf("promoted a page of a nonexistent process")
	}
}

func pinPage(t *testing.T, m *cpu.Machine, pid int, vpn mem.VPN) {
	t.Helper()
	pfn, ok := m.Table(pid).Frame(vpn)
	if !ok {
		t.Fatalf("vpn %d not mapped", vpn)
	}
	m.Phys.SetNonMigratable(pfn, true)
}

func unpinPage(t *testing.T, m *cpu.Machine, pid int, vpn mem.VPN) {
	t.Helper()
	pfn, ok := m.Table(pid).Frame(vpn)
	if !ok {
		t.Fatalf("vpn %d not mapped", vpn)
	}
	m.Phys.SetNonMigratable(pfn, false)
}

func TestMigrateTypedErrors(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 5) // 0..3 fast, 4 slow
	mv := NewMover(m)

	if f := mv.migrate(core.PageKey{PID: 99, VPN: 1}, mem.FastTier); f != provenance.FailVanished {
		t.Errorf("missing process: got %v, want FailVanished", f)
	}
	if f := mv.migrate(core.PageKey{PID: 1, VPN: 77}, mem.FastTier); f != provenance.FailVanished {
		t.Errorf("unmapped vpn: got %v, want FailVanished", f)
	}
	pinPage(t, m, 1, 0)
	if f := mv.migrate(core.PageKey{PID: 1, VPN: 0}, mem.SlowTier); f != provenance.FailPinned {
		t.Errorf("pinned page: got %v, want FailPinned", f)
	}
	// Fast tier is full: promotion hits allocation pressure.
	if f := mv.migrate(core.PageKey{PID: 1, VPN: 4}, mem.FastTier); f != provenance.FailCapacity {
		t.Errorf("full tier: got %v, want FailCapacity", f)
	}
}

// fullFastSetup maps five pages (four fill the fast tier, one spills)
// and pins the fast residents so no demotion can make room.
func fullFastSetup(t *testing.T) (*cpu.Machine, *Mover, Selection) {
	t.Helper()
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 5)
	for i := 0; i < 4; i++ {
		pinPage(t, m, 1, mem.VPN(i))
	}
	return m, NewMover(m), Selection{core.PageKey{PID: 1, VPN: 4}: {}}
}

func TestRetryQueueCarriesCapacityFailure(t *testing.T) {
	m, mv, sel := fullFastSetup(t)
	promoted, _ := mv.ApplySelection(sel, core.Ranks{})
	if promoted != 0 {
		t.Fatalf("promoted %d into a full tier", promoted)
	}
	if mv.Failed != 1 || mv.FailedCapacity != 1 || mv.RetryQueueLen() != 1 {
		t.Fatalf("failed=%d capacity=%d queue=%d, want 1/1/1", mv.Failed, mv.FailedCapacity, mv.RetryQueueLen())
	}
	// Make room, then let the deferred retry land next epoch.
	unpinPage(t, m, 1, 0)
	if f := mv.migrate(core.PageKey{PID: 1, VPN: 0}, mem.SlowTier); f != provenance.FailNone {
		t.Fatal(f)
	}
	promoted, _ = mv.ApplySelection(sel, core.Ranks{})
	if promoted != 1 || mv.RetrySucceeded != 1 || mv.Retried != 1 {
		t.Errorf("promoted=%d retrySucceeded=%d retried=%d, want 1/1/1", promoted, mv.RetrySucceeded, mv.Retried)
	}
	if tierOf(t, m, 1, 4) != mem.FastTier {
		t.Errorf("retried promotion did not land")
	}
	if mv.RetryQueueLen() != 0 {
		t.Errorf("queue not drained after success")
	}
}

func TestRetryBackoffAndAttemptCap(t *testing.T) {
	_, mv, sel := fullFastSetup(t)
	// Epoch 1: fresh failure queues the page (due epoch 2).
	mv.ApplySelection(sel, core.Ranks{})
	// Epoch 2: retry #1 fails, requeued with backoff 2 (due epoch 4).
	mv.ApplySelection(sel, core.Ranks{})
	if mv.Retried != 1 || mv.Failed != 2 {
		t.Fatalf("after epoch 2: retried=%d failed=%d, want 1/2", mv.Retried, mv.Failed)
	}
	// Epoch 3: nothing due; the queued page is also excluded from the
	// fresh pass, so no third attempt happens early.
	mv.ApplySelection(sel, core.Ranks{})
	if mv.Retried != 1 || mv.Failed != 2 {
		t.Fatalf("backoff not honored: retried=%d failed=%d", mv.Retried, mv.Failed)
	}
	// Epoch 4: retry #2 fails; the third failure hits MaxRetries and
	// the page is dropped from the queue.
	mv.ApplySelection(sel, core.Ranks{})
	if mv.Retried != 2 || mv.Failed != 3 || mv.RetryDropped != 1 || mv.RetryQueueLen() != 0 {
		t.Errorf("after cap: retried=%d failed=%d dropped=%d queue=%d, want 2/3/1/0",
			mv.Retried, mv.Failed, mv.RetryDropped, mv.RetryQueueLen())
	}
	// The aggregate stays the sum of the reasons.
	if mv.Failed != mv.FailedCapacity+mv.FailedPinned+mv.FailedVanished+mv.FailedSplit {
		t.Errorf("Failed=%d not partitioned by reason counters", mv.Failed)
	}
}

func TestRetrySuperseded(t *testing.T) {
	_, mv, sel := fullFastSetup(t)
	mv.ApplySelection(sel, core.Ranks{})
	if mv.RetryQueueLen() != 1 {
		t.Fatalf("queue=%d, want 1", mv.RetryQueueLen())
	}
	// Next epoch the policy no longer selects the page: the queued
	// promotion is stale and must be dropped, not replayed.
	mv.ApplySelection(Selection{}, core.Ranks{})
	if mv.RetrySuperseded != 1 || mv.RetryQueueLen() != 0 || mv.Retried != 0 {
		t.Errorf("superseded=%d queue=%d retried=%d, want 1/0/0",
			mv.RetrySuperseded, mv.RetryQueueLen(), mv.Retried)
	}
}

func TestFaultPinnedMigrationClassified(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 5)
	mv := NewMover(m)
	spec, _ := fault.ParseSpec("mem.pinned=1")
	mv.SetFaultPlane(fault.New(spec, 1))
	sel := Selection{core.PageKey{PID: 1, VPN: 4}: {}}
	promoted, demoted := mv.ApplySelection(sel, core.Ranks{})
	if promoted != 0 || demoted != 0 {
		t.Fatalf("migrations succeeded under rate-1 pin: %d/%d", promoted, demoted)
	}
	if mv.FailedPinned == 0 {
		t.Errorf("no pinned failures classified")
	}
	if mv.Failed != mv.FailedCapacity+mv.FailedPinned+mv.FailedVanished+mv.FailedSplit {
		t.Errorf("Failed=%d not partitioned by reason counters", mv.Failed)
	}
	if mv.RetryQueueLen() == 0 {
		t.Errorf("transient pin failures not queued for retry")
	}
}

func TestFaultSplitFailure(t *testing.T) {
	m := moverMachine(t, 2*mem.HugePages, 2*mem.HugePages)
	m.SetHugeHint(func(pid int, vpn mem.VPN) bool { return true })
	if _, err := m.Execute(trace.Ref{PID: 1, VAddr: 0, Kind: trace.Load}); err != nil {
		t.Fatal(err)
	}
	mv := NewMover(m)
	spec, _ := fault.ParseSpec("mem.splitfail=1")
	mv.SetFaultPlane(fault.New(spec, 1))
	if f := mv.migrate(core.PageKey{PID: 1, VPN: 7}, mem.SlowTier); f != provenance.FailSplit {
		t.Fatalf("got %v, want FailSplit", f)
	}
	// The failed split must leave the huge mapping intact: the bail
	// happens before any page-table mutation.
	if m.Table(1).HugeLeaves() != 1 || mv.Splits != 0 {
		t.Errorf("failed split mutated the mapping: leaves=%d splits=%d",
			m.Table(1).HugeLeaves(), mv.Splits)
	}
}

func TestMoverZeroRatePlaneInert(t *testing.T) {
	run := func(p *fault.Plane) (*Mover, *cpu.Machine) {
		m := moverMachine(t, 4, 16)
		touchPages(t, m, 1, 8)
		mv := NewMover(m)
		mv.SetFaultPlane(p)
		sel := Selection{
			core.PageKey{PID: 1, VPN: 5}: {},
			core.PageKey{PID: 1, VPN: 6}: {},
		}
		mv.ApplySelection(sel, core.Ranks{})
		return mv, m
	}
	a, _ := run(nil)
	b, _ := run(fault.New(fault.Spec{}, 42))
	if a.Promotions != b.Promotions || a.Demotions != b.Demotions || a.Failed != b.Failed {
		t.Errorf("zero-rate plane perturbed the mover: %+v vs %+v", a, b)
	}
}
