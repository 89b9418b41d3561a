package badgertrap

import (
	"testing"

	"tieredmem/internal/cache"
	"tieredmem/internal/core"
	"tieredmem/internal/cpu"
	"tieredmem/internal/mem"
	"tieredmem/internal/tlb"
	"tieredmem/internal/trace"
)

func testMachine(t *testing.T) *cpu.Machine {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.Cores = 2
	cfg.PrefetchDegree = 0
	cfg.CtxSwitchNS = 0
	cfg.L1D = cache.Config{SizeBytes: 4 << 10, Ways: 2}
	cfg.L2 = cache.Config{SizeBytes: 16 << 10, Ways: 4}
	cfg.LLC = cache.Config{SizeBytes: 64 << 10, Ways: 4}
	cfg.L1TLB = tlb.Config{Entries: 8, Ways: 2}
	cfg.L2TLB = tlb.Config{Entries: 16, Ways: 4}
	m, err := cpu.NewMachine(cfg, mem.DefaultTiers(256, 256))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func touch(t *testing.T, m *cpu.Machine, pid int, vaddr uint64) {
	t.Helper()
	if _, err := m.Execute(trace.Ref{PID: pid, VAddr: vaddr, Kind: trace.Load}); err != nil {
		t.Fatal(err)
	}
}

func TestTrackCountsTLBMisses(t *testing.T) {
	m := testMachine(t)
	p, err := New(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, m, 1, 0x1000)
	p.Track([]int{1})
	if p.Stats().Tracked != 1 {
		t.Fatalf("tracked %d PTEs, want 1", p.Stats().Tracked)
	}
	// First access after tracking: TLB was flushed -> walk -> fault.
	touch(t, m, 1, 0x1000)
	if p.Stats().Faults != 1 {
		t.Fatalf("faults = %d, want 1", p.Stats().Faults)
	}
	// TLB now holds the translation: accesses run free.
	touch(t, m, 1, 0x1000)
	touch(t, m, 1, 0x1000)
	if p.Stats().Faults != 1 {
		t.Errorf("TLB-resident accesses faulted")
	}
	// Evict the translation: the next walk faults again, because the
	// poison stayed set (repoison semantics).
	m.FlushAllTLBs()
	touch(t, m, 1, 0x1000)
	if p.Stats().Faults != 2 {
		t.Errorf("faults = %d after TLB eviction, want 2", p.Stats().Faults)
	}
}

func TestHarvestAndHotClassification(t *testing.T) {
	m := testMachine(t)
	p, _ := New(DefaultConfig(), m)
	touch(t, m, 1, 0x1000)
	touch(t, m, 1, 0x2000)
	p.Track([]int{1})
	// Page 1 faults twice (flush in between), page 2 once.
	touch(t, m, 1, 0x1000)
	m.FlushAllTLBs()
	touch(t, m, 1, 0x1000)
	touch(t, m, 1, 0x2000)
	ep := p.HarvestEpoch(0)
	if len(ep.Pages) != 2 {
		t.Fatalf("harvest has %d pages, want 2", len(ep.Pages))
	}
	if pg := ep.Pages[0]; pg.Key != (core.PageKey{PID: 1, VPN: 1}) || pg.Abit != 2 {
		t.Errorf("first harvested page = %v with %d faults, want page 1 with 2", pg.Key, pg.Abit)
	}
	if p.DistinctPages() != 0 {
		t.Errorf("harvest did not reset")
	}
}

func TestOverheadAccounted(t *testing.T) {
	m := testMachine(t)
	p, _ := New(DefaultConfig(), m)
	touch(t, m, 1, 0x1000)
	p.Track([]int{1})
	before := p.Stats().OverheadNS
	touch(t, m, 1, 0x1000)
	if p.Stats().OverheadNS <= before {
		t.Errorf("fault overhead not recorded")
	}
}

func TestBadConfig(t *testing.T) {
	m := testMachine(t)
	if _, err := New(Config{FaultCost: -1}, m); err == nil {
		t.Errorf("negative cost accepted")
	}
}
