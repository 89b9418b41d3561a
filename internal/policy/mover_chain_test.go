package policy

import (
	"testing"

	"tieredmem/internal/cache"
	"tieredmem/internal/core"
	"tieredmem/internal/cpu"
	"tieredmem/internal/mem"
	"tieredmem/internal/tlb"
)

// chainMachine builds a two-core machine over an arbitrary tier chain.
func chainMachine(t *testing.T, chainSpec string) *cpu.Machine {
	t.Helper()
	chain, err := mem.ParseTierChain(chainSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	cfg.Cores = 2
	cfg.PrefetchDegree = 0
	cfg.CtxSwitchNS = 0
	cfg.L1D = cache.Config{SizeBytes: 4 << 10, Ways: 2}
	cfg.L2 = cache.Config{SizeBytes: 16 << 10, Ways: 4}
	cfg.LLC = cache.Config{SizeBytes: 64 << 10, Ways: 4}
	cfg.L1TLB = tlb.Config{Entries: 16, Ways: 4}
	cfg.L2TLB = tlb.Config{Entries: 64, Ways: 4}
	m, err := cpu.NewMachine(cfg, chain)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// selectKeys builds a Selection over (pid 1, vpns).
func selectKeys(vpns ...mem.VPN) Selection {
	sel := make(Selection, len(vpns))
	for _, v := range vpns {
		sel[core.PageKey{PID: 1, VPN: v}] = struct{}{}
	}
	return sel
}

// TestChainPromoteClimbsOneTierPerEpoch pins the adjacency rule: a
// selected page at the bottom of a 3-tier chain reaches the top in two
// epochs, pausing in the middle tier, with the middle tier spilling one
// of its own pages down to make room.
func TestChainPromoteClimbsOneTierPerEpoch(t *testing.T) {
	m := chainMachine(t, "dram:4/cxl:8/nvm:16")
	touchPages(t, m, 1, 16) // 0..3 dram, 4..11 cxl, 12..15 nvm
	mv := NewMover(m)
	sel := selectKeys(13)

	promoted, demoted := mv.ApplySelection(sel, core.Ranks{})
	if promoted != 1 || demoted != 1 {
		t.Fatalf("epoch 1: promoted, demoted = %d, %d; want 1, 1", promoted, demoted)
	}
	if got := tierOf(t, m, 1, 13); got != 1 {
		t.Fatalf("epoch 1: page climbed to tier %d, want middle tier 1", got)
	}

	// Epoch 2 cascades: a dram page spills into the (full) middle
	// tier, which first spills one of its own down — two demotions
	// for the one promotion.
	promoted, demoted = mv.ApplySelection(sel, core.Ranks{})
	if promoted != 1 || demoted != 2 {
		t.Fatalf("epoch 2: promoted, demoted = %d, %d; want 1, 2", promoted, demoted)
	}
	if got := tierOf(t, m, 1, 13); got != mem.FastTier {
		t.Fatalf("epoch 2: page in tier %d, want top tier", got)
	}
	if mv.Shootdowns != 2 {
		t.Errorf("Shootdowns = %d, want one per epoch with movement", mv.Shootdowns)
	}
}

// TestChainPromotionPastFullMiddleTier pins the backpressure path: when
// the middle tier is full and offers no demotion candidates, a deep
// promotion fails with a capacity error and queues for retry rather
// than skipping a tier or evicting protected pages.
func TestChainPromotionPastFullMiddleTier(t *testing.T) {
	m := chainMachine(t, "dram:4/cxl:8/nvm:16")
	touchPages(t, m, 1, 16)
	mv := NewMover(m)
	// Everything resident in dram and cxl is selected (protected);
	// page 13 wants to climb out of nvm with nowhere to go.
	sel := selectKeys(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13)

	promoted, _ := mv.ApplySelection(sel, core.Ranks{})
	if got := tierOf(t, m, 1, 13); got != 2 {
		t.Fatalf("page moved to tier %d despite full middle tier", got)
	}
	if promoted != 0 {
		t.Fatalf("promoted = %d, want 0", promoted)
	}
	if mv.FailedCapacity == 0 {
		t.Fatal("no capacity failure recorded for the blocked climb")
	}
	if mv.RetryQueueLen() == 0 {
		t.Fatal("blocked climb not queued for retry")
	}

	// Deselect one middle-tier page: it becomes spillable, and over
	// the following epochs the blocked climb completes (via retry or
	// a fresh pass once the retry budget drains — either way the page
	// must land without skipping a tier).
	sel2 := selectKeys(0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 13)
	var reached bool
	for epoch := 0; epoch < 6; epoch++ {
		mv.ApplySelection(sel2, core.Ranks{})
		if tierOf(t, m, 1, 13) == 1 {
			reached = true
			break
		}
	}
	if !reached {
		t.Fatal("climb never completed after room appeared")
	}
	if mv.Retried == 0 {
		t.Fatal("deferred retries were never replayed")
	}
}

// TestChainNoDemotionOffChainEnd pins the chain-end rule: pages in the
// last tier are never demotion candidates, even when the tier above
// spills into their tier under promotion pressure.
func TestChainNoDemotionOffChainEnd(t *testing.T) {
	m := chainMachine(t, "dram:4/cxl:4/nvm:16")
	touchPages(t, m, 1, 12) // 0..3 dram, 4..7 cxl, 8..11 nvm
	mv := NewMover(m)
	// Promote two nvm pages; the full middle tier must spill its own
	// (unselected) pages down, and the nvm residents must stay put.
	sel := selectKeys(8, 9)
	promoted, demoted := mv.ApplySelection(sel, core.Ranks{})
	if promoted != 2 || demoted != 2 {
		t.Fatalf("promoted, demoted = %d, %d; want 2, 2", promoted, demoted)
	}
	for _, vpn := range []mem.VPN{10, 11} {
		if got := tierOf(t, m, 1, vpn); got != 2 {
			t.Errorf("unselected last-tier page %d moved to tier %d", vpn, got)
		}
	}
	// The spilled middle-tier pages landed in the last tier, not off
	// its end.
	inLast := 0
	for _, vpn := range []mem.VPN{4, 5, 6, 7} {
		if tierOf(t, m, 1, vpn) == 2 {
			inLast++
		}
	}
	if inLast != 2 {
		t.Errorf("middle-tier spills in last tier = %d, want 2", inLast)
	}
}

// TestChainPinnedPageMidChain pins the non-migratable rule in the
// middle of the chain: a pinned page is neither promoted when selected
// nor demoted to make room, and its exclusion is silent (skipped, not
// a failure).
func TestChainPinnedPageMidChain(t *testing.T) {
	m := chainMachine(t, "dram:4/cxl:8/nvm:16")
	touchPages(t, m, 1, 16)
	pfn, ok := m.Table(1).Frame(5) // resident mid-chain
	if !ok {
		t.Fatal("vpn 5 not mapped")
	}
	m.Phys.SetNonMigratable(pfn, true)

	mv := NewMover(m)
	// Selected: the pinned page must not climb.
	mv.ApplySelection(selectKeys(5), core.Ranks{})
	if got := tierOf(t, m, 1, 5); got != 1 {
		t.Fatalf("pinned page promoted to tier %d", got)
	}
	// Unselected under heavy promotion pressure into its tier: the
	// pinned page must not be the spill victim. Rank every other
	// middle-tier page hotter so the pinned page would be the coldest
	// candidate if it were eligible.
	ranks := core.RanksFromMap(map[core.PageKey]uint64{
		{PID: 1, VPN: 4}:  9,
		{PID: 1, VPN: 6}:  9,
		{PID: 1, VPN: 7}:  9,
		{PID: 1, VPN: 8}:  9,
		{PID: 1, VPN: 9}:  9,
		{PID: 1, VPN: 10}: 9,
		{PID: 1, VPN: 11}: 9,
	})
	mv.ApplySelection(selectKeys(13), ranks)
	if got := tierOf(t, m, 1, 5); got != 1 {
		t.Fatalf("pinned page demoted to tier %d", got)
	}
	if mv.Failed != 0 {
		t.Fatalf("pinned exclusion counted as failure: %d", mv.Failed)
	}
	if got := tierOf(t, m, 1, 13); got != 1 {
		t.Fatalf("promotion around pinned page failed: tier %d", got)
	}
}

// TestChainCascadeMakesRoomBottomUp drives a promotion wave large
// enough to cascade within one epoch: promotions into the full top
// tier force dram spills into the full middle tier, which must first
// spill its own cold pages down to the last tier to receive them —
// all under a single batched shootdown.
func TestChainCascadeMakesRoomBottomUp(t *testing.T) {
	m := chainMachine(t, "dram:4/cxl:4/nvm:16")
	touchPages(t, m, 1, 8) // 0..3 dram, 4..7 cxl (both full)
	mv := NewMover(m)
	// Two middle-tier pages climb; the other two are cold ballast the
	// middle tier can spill to make room for the dram displacements.
	sel := selectKeys(4, 5)
	ranks := core.RanksFromMap(map[core.PageKey]uint64{
		{PID: 1, VPN: 2}: 9, // hot dram residents survive
		{PID: 1, VPN: 3}: 9,
	})
	promoted, demoted := mv.ApplySelection(sel, ranks)
	if promoted != 2 {
		t.Fatalf("promoted = %d, want 2", promoted)
	}
	if demoted != 4 {
		t.Fatalf("demoted = %d, want 4 (2 dram spills + 2 middle spills)", demoted)
	}
	for _, vpn := range []mem.VPN{4, 5} {
		if got := tierOf(t, m, 1, vpn); got != mem.FastTier {
			t.Errorf("selected page %d in tier %d, want top", vpn, got)
		}
	}
	// The cold dram pages landed in the middle tier, and the middle
	// tier's cold ballast sank to the bottom, in the same epoch.
	for _, vpn := range []mem.VPN{0, 1} {
		if got := tierOf(t, m, 1, vpn); got != 1 {
			t.Errorf("displaced dram page %d in tier %d, want middle", vpn, got)
		}
	}
	for _, vpn := range []mem.VPN{6, 7} {
		if got := tierOf(t, m, 1, vpn); got != 2 {
			t.Errorf("middle ballast page %d in tier %d, want bottom", vpn, got)
		}
	}
	if mv.Shootdowns != 1 {
		t.Errorf("Shootdowns = %d, want exactly 1 for the whole cascade", mv.Shootdowns)
	}
}
