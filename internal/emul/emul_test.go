package emul

import (
	"testing"

	"tieredmem/internal/cache"
	"tieredmem/internal/cpu"
	"tieredmem/internal/mem"
	"tieredmem/internal/tlb"
	"tieredmem/internal/trace"
)

func testMachine(t *testing.T, fast, slow int) *cpu.Machine {
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

func touch(t *testing.T, m *cpu.Machine, vaddr uint64) *trace.Outcome {
	t.Helper()
	o, err := m.Execute(trace.Ref{PID: 1, VAddr: vaddr, Kind: trace.Load})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestPaperCosts(t *testing.T) {
	c := PaperCosts(1000)
	if c.SlowAccessNS != 10_000 || c.HotExtraNS != 13_000 || c.MigrationNS != 50_000 {
		t.Errorf("paper constants wrong: %+v", c)
	}
	if c.WindowNS != 1000 {
		t.Errorf("window not propagated")
	}
}

func TestRepoisonTargetsSlowPagesOnly(t *testing.T) {
	m := testMachine(t, 2, 16)
	em, err := New(PaperCosts(1000), m)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, m, 0x0000) // fast
	touch(t, m, 0x1000) // fast
	touch(t, m, 0x2000) // spills slow
	em.Repoison()
	fastPTE, _ := m.Table(1).Resolve(0)
	slowPTE, _ := m.Table(1).Resolve(2)
	if fastPTE.Poisoned() {
		t.Errorf("fast-tier page poisoned")
	}
	if !slowPTE.Poisoned() {
		t.Errorf("slow-tier page not poisoned")
	}
	if em.Stats().Poisoned != 1 {
		t.Errorf("Poisoned = %d, want 1", em.Stats().Poisoned)
	}
}

func TestFaultInjectsLatencyAndUnpoisons(t *testing.T) {
	m := testMachine(t, 1, 16)
	em, _ := New(PaperCosts(1_000_000), m)
	touch(t, m, 0x0000) // fast
	touch(t, m, 0x1000) // slow
	em.Repoison()
	o := touch(t, m, 0x1000)
	if em.Stats().Faults != 1 {
		t.Fatalf("Faults = %d, want 1", em.Stats().Faults)
	}
	if o.Latency < 10_000 {
		t.Errorf("latency %d does not include the 10us injection", o.Latency)
	}
	// BadgerTrap semantics: unpoisoned after the fault, so the next
	// access in the window is fast.
	o2 := touch(t, m, 0x1000)
	if em.Stats().Faults != 1 {
		t.Errorf("second access faulted; page not unpoisoned")
	}
	if o2.Latency >= 10_000 {
		t.Errorf("second access still slow: %d", o2.Latency)
	}
}

func TestHotPagePaysExtra(t *testing.T) {
	m := testMachine(t, 1, 16)
	costs := PaperCosts(1_000_000)
	costs.HotThreshold = 2
	em, _ := New(costs, m)
	touch(t, m, 0x0000)
	// Make page 1 hot in ground truth: several memory-level accesses.
	// Cold misses count; cache hits do not, so touch distinct lines.
	for i := uint64(0); i < 4; i++ {
		touch(t, m, 0x1000+i*64)
		// Evict from caches by touching other lines? Simpler: the
		// first four accesses to distinct lines all miss -> Epoch.True
		// rises to 4.
	}
	em.Repoison()
	touch(t, m, 0x1000)
	s := em.Stats()
	if s.HotFaults != 1 {
		t.Fatalf("HotFaults = %d, want 1 (Epoch.True above threshold)", s.HotFaults)
	}
	if s.InjectedNS < 23_000 {
		t.Errorf("hot fault injected %d, want >= 23us", s.InjectedNS)
	}
}

func TestTickIfDueWindows(t *testing.T) {
	m := testMachine(t, 1, 16)
	em, _ := New(PaperCosts(1000), m)
	touch(t, m, 0x0000)
	touch(t, m, 0x1000) // slow
	if em.TickIfDue(999) {
		t.Errorf("window ran early")
	}
	if !em.TickIfDue(1000) {
		t.Errorf("window did not run at the edge")
	}
	// The fault unpoisons; the next window must re-poison.
	touch(t, m, 0x1000)
	faults := em.Stats().Faults
	if !em.TickIfDue(2000) {
		t.Fatalf("second window did not run")
	}
	touch(t, m, 0x1000)
	if em.Stats().Faults != faults+1 {
		t.Errorf("re-poisoned page did not fault in the new window")
	}
}

func TestChargeMigration(t *testing.T) {
	m := testMachine(t, 4, 4)
	em, _ := New(PaperCosts(1000), m)
	cost := em.ChargeMigration(3)
	if cost != 150_000 {
		t.Errorf("migration cost = %d, want 3 x 50us", cost)
	}
	if em.Stats().MigratedPgs != 3 {
		t.Errorf("MigratedPgs = %d", em.Stats().MigratedPgs)
	}
}

func TestBadWindow(t *testing.T) {
	m := testMachine(t, 4, 4)
	if _, err := New(PaperCosts(0), m); err == nil {
		t.Errorf("zero window accepted")
	}
}
