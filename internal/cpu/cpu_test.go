package cpu

import (
	"runtime"
	"testing"

	"tieredmem/internal/cache"
	"tieredmem/internal/mem"
	"tieredmem/internal/pmu"
	"tieredmem/internal/testalloc"
	"tieredmem/internal/tlb"
	"tieredmem/internal/trace"
)

// testConfig is a small deterministic machine without context
// switches (enabled per test when needed).
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.PrefetchDegree = 0
	cfg.CtxSwitchNS = 0
	cfg.L1D = cache.Config{SizeBytes: 4 << 10, Ways: 2}
	cfg.L2 = cache.Config{SizeBytes: 16 << 10, Ways: 4}
	cfg.LLC = cache.Config{SizeBytes: 64 << 10, Ways: 4}
	cfg.L1TLB = tlb.Config{Entries: 16, Ways: 4}
	cfg.L2TLB = tlb.Config{Entries: 64, Ways: 4}
	return cfg
}

func testMachine(t *testing.T, fastFrames, slowFrames int) *Machine {
	t.Helper()
	m, err := NewMachine(testConfig(), mem.DefaultTiers(fastFrames, slowFrames))
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func load(pid int, vaddr uint64) trace.Ref {
	return trace.Ref{PID: pid, IP: 0x400000, VAddr: vaddr, Kind: trace.Load}
}

func store(pid int, vaddr uint64) trace.Ref {
	return trace.Ref{PID: pid, IP: 0x400010, VAddr: vaddr, Kind: trace.Store}
}

func TestFirstTouchFaultsAndMaps(t *testing.T) {
	m := testMachine(t, 16, 16)
	o, err := m.Execute(load(1, 0x5000))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if m.MinorFaults != 1 {
		t.Errorf("MinorFaults = %d, want 1", m.MinorFaults)
	}
	if !o.TLBMiss || !o.PageWalk {
		t.Errorf("first touch should miss TLB and walk: %+v", o)
	}
	pte, huge, ok := m.Table(1).Lookup(mem.VPNOf(0x5000))
	if !ok || huge {
		t.Fatalf("page not mapped after fault")
	}
	if !pte.Accessed() {
		t.Errorf("PTW did not set A bit on fault path")
	}
	if pte.Dirty() {
		t.Errorf("load set D bit")
	}
	if o.PAddr&mem.PageMask != 0x5000&mem.PageMask {
		t.Errorf("page offset not preserved: %#x", o.PAddr)
	}
}

func TestSecondAccessHitsTLB(t *testing.T) {
	m := testMachine(t, 16, 16)
	m.Execute(load(1, 0x5000))
	o, _ := m.Execute(load(1, 0x5008))
	if o.TLBMiss {
		t.Errorf("second access to same page missed TLB")
	}
	if m.MinorFaults != 1 {
		t.Errorf("MinorFaults = %d, want 1", m.MinorFaults)
	}
}

func TestStoreSetsDirtyEvenOnTLBHit(t *testing.T) {
	m := testMachine(t, 16, 16)
	m.Execute(load(1, 0x7000)) // map + TLB fill, D clear
	pte := m.Table(1).PTEPtr(mem.VPNOf(0x7000))
	if pte.Dirty() {
		t.Fatalf("precondition: D set by load")
	}
	o, _ := m.Execute(store(1, 0x7000))
	if o.TLBMiss {
		t.Fatalf("store should have hit the TLB")
	}
	if !o.PageWalk {
		t.Errorf("store through clean TLB entry must walk to set D (x86 semantics)")
	}
	if !pte.Dirty() {
		t.Errorf("D bit not set in PTE")
	}
	// Second store: the TLB entry is dirty now; no more walks.
	o2, _ := m.Execute(store(1, 0x7000))
	if o2.PageWalk {
		t.Errorf("second store walked despite dirty TLB entry")
	}
}

func TestAbitStaleUntilTLBEviction(t *testing.T) {
	// The paper's §III-B4 artifact: clearing A without a shootdown
	// delays the next A-bit set while the translation stays cached.
	m := testMachine(t, 16, 16)
	m.Execute(load(1, 0x9000))
	pte := m.Table(1).PTEPtr(mem.VPNOf(0x9000))
	*pte &^= 1 << 5 // clear A (what the scanner does), no flush
	m.Execute(load(1, 0x9000))
	if pte.Accessed() {
		t.Errorf("A bit set despite TLB-resident translation (no walk happened)")
	}
	// After an explicit flush the next access walks and re-sets A.
	m.FlushAllTLBs()
	m.Execute(load(1, 0x9000))
	if !pte.Accessed() {
		t.Errorf("A bit not re-set after TLB flush")
	}
}

func TestContextSwitchFlushesTLB(t *testing.T) {
	cfg := testConfig()
	cfg.CtxSwitchNS = 500
	m, err := NewMachine(cfg, mem.DefaultTiers(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	m.Execute(load(1, 0x9000))
	pte := m.Table(1).PTEPtr(mem.VPNOf(0x9000))
	*pte &^= 1 << 5
	// Keep the core busy past several switch periods; the periodic
	// flush must eventually force a re-walk that re-sets A.
	for i := 0; i < 200 && !pte.Accessed(); i++ {
		m.Execute(load(1, 0x9000))
	}
	if !pte.Accessed() {
		t.Errorf("context switches never re-armed the A bit")
	}
	if m.CoreFor(1).CtxSwitches == 0 {
		t.Errorf("no context switches recorded")
	}
}

func TestPIDToCoreAffinity(t *testing.T) {
	m := testMachine(t, 32, 32)
	c1 := m.CoreFor(10)
	c2 := m.CoreFor(11)
	if c1 == c2 {
		t.Errorf("two PIDs on a 2-core machine share a core immediately")
	}
	if m.CoreFor(10) != c1 {
		t.Errorf("PID 10 moved cores")
	}
	if m.CoreFor(12) != c1 {
		t.Errorf("third PID should wrap to core 0")
	}
}

// TestExecuteRunsPIDOnItsCore checks that Execute runs each PID on the
// core CoreFor assigns it, inside the dense PID slots and outside them.
func TestExecuteRunsPIDOnItsCore(t *testing.T) {
	m := testMachine(t, 64, 64)
	for _, pid := range []int{5, -3, maxDensePID + 7, 0, 5, -3} {
		o, err := m.Execute(load(pid, 0x1000))
		if err != nil {
			t.Fatal(err)
		}
		if want := m.CoreFor(pid).ID; o.CPU != want {
			t.Errorf("pid %d ran on core %d, CoreFor says %d", pid, o.CPU, want)
		}
	}
	if got := len(m.Tables()); got != 4 {
		t.Errorf("%d page tables, want 4 (one per PID)", got)
	}
}

// TestExecuteSteadyStateZeroAlloc pins the per-reference path
// allocation-free once every page is mapped and every PID has been
// seen, with stores, prefetching and context switches in the mix.
func TestExecuteSteadyStateZeroAlloc(t *testing.T) {
	cfg := testConfig()
	cfg.CtxSwitchNS = 500
	cfg.PrefetchDegree = 2
	m, err := NewMachine(cfg, mem.DefaultTiers(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	var refs []trace.Ref
	for pid := 1; pid <= 3; pid++ {
		for page := uint64(0); page < 8; page++ {
			refs = append(refs, load(pid, page*4096+uint64(pid)*64), store(pid, page*4096+512))
		}
	}
	run := func() {
		for _, r := range refs {
			if _, err := m.Execute(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // map every page and give every PID its slot
	// One run of many passes, read as a total (TestAllocsPinsTakeOneRun).
	const passes = 100
	allocs := testalloc.Count(func() {
		for range passes {
			run()
		}
	})
	if allocs != 0 {
		t.Errorf("Execute allocated %v times in %d passes over %d warmed references, want 0", allocs, passes, len(refs))
	}
}

func TestClockAdvancesMonotonically(t *testing.T) {
	m := testMachine(t, 64, 64)
	var last int64
	for i := 0; i < 100; i++ {
		o, err := m.Execute(load(1, uint64(i)*4096))
		if err != nil {
			t.Fatal(err)
		}
		if o.Now <= last {
			t.Fatalf("clock not monotone: %d after %d", o.Now, last)
		}
		last = o.Now
	}
}

func TestMemoryAccessChargesTierLatency(t *testing.T) {
	m := testMachine(t, 16, 16)
	o, _ := m.Execute(load(1, 0x1000))
	if o.Source != trace.SrcTier1 {
		t.Fatalf("cold access source = %v, want tier1", o.Source)
	}
	// Latency must include the fast tier's read latency (80) plus
	// fault and walk costs.
	if o.Latency < 80 {
		t.Errorf("latency %d below DRAM read latency", o.Latency)
	}
}

func TestSlowTierLatencyHigher(t *testing.T) {
	m := testMachine(t, 1, 64) // fast tier: one frame
	m.Execute(load(1, 0x0))    // takes the only fast frame
	o1, _ := m.Execute(load(1, 0x100000))
	if o1.Source != trace.SrcTier2 {
		t.Fatalf("spilled page source = %v, want tier2", o1.Source)
	}
	// Re-access after flushing caches is hard; instead compare fresh
	// misses: slow read (320) must exceed fast read (80).
	if o1.Latency <= 80 {
		t.Errorf("tier2 access latency %d not above DRAM", o1.Latency)
	}
}

func TestGroundTruthCountsMemoryAccessesOnly(t *testing.T) {
	m := testMachine(t, 16, 16)
	m.Execute(load(1, 0x3000))
	pd := m.Phys.PhysToPage(mustFrame(t, m, 1, 0x3000).PAddrOf())
	if pd.Epoch.True != 1 {
		t.Fatalf("Epoch.True = %d after cold miss, want 1", pd.Epoch.True)
	}
	m.Execute(load(1, 0x3000)) // L1 hit: not a memory access
	if pd.Epoch.True != 1 {
		t.Errorf("Epoch.True = %d after cache hit, want still 1", pd.Epoch.True)
	}
}

func mustFrame(t *testing.T, m *Machine, pid int, vaddr uint64) mem.PFN {
	t.Helper()
	pfn, ok := m.Table(pid).Frame(mem.VPNOf(vaddr))
	if !ok {
		t.Fatalf("page %#x not mapped", vaddr)
	}
	return pfn
}

func TestHugeFaultMapsChunk(t *testing.T) {
	cfg := testConfig()
	m, err := NewMachine(cfg, mem.DefaultTiers(2*mem.HugePages, mem.HugePages))
	if err != nil {
		t.Fatal(err)
	}
	m.SetHugeHint(func(pid int, vpn mem.VPN) bool { return true })
	o, err := m.Execute(load(1, 0x0))
	if err != nil {
		t.Fatal(err)
	}
	if m.HugeFaults != 1 {
		t.Fatalf("HugeFaults = %d, want 1", m.HugeFaults)
	}
	if m.Table(1).HugeLeaves() != 1 {
		t.Errorf("no huge leaf mapped")
	}
	// Another page in the same chunk: no new fault.
	m.Execute(load(1, 511*4096))
	if m.MinorFaults != 1 {
		t.Errorf("MinorFaults = %d, want 1 (chunk already mapped)", m.MinorFaults)
	}
	_ = o
}

func TestHugeFallbackWhenNoContiguous(t *testing.T) {
	cfg := testConfig()
	// Fast tier big enough in frames but AllocHuge needs an aligned
	// free run; tiny tiers guarantee failure.
	m, err := NewMachine(cfg, mem.DefaultTiers(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	m.SetHugeHint(func(pid int, vpn mem.VPN) bool { return true })
	if _, err := m.Execute(load(1, 0x0)); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if m.HugeFaults != 0 {
		t.Errorf("huge fault succeeded in a 64-frame tier")
	}
	if m.MinorFaults != 1 {
		t.Errorf("THP fallback did not take a base-page fault")
	}
	if m.Table(1).Mapped() != 1 {
		t.Errorf("fallback did not map a base page")
	}
}

func TestPoisonHandlerInvoked(t *testing.T) {
	m := testMachine(t, 16, 16)
	m.Execute(load(1, 0x2000))
	var handled int
	m.SetPoisonHandler(func(o *trace.Outcome, _ mem.PFN) (int64, bool) {
		handled++
		return 12345, true
	})
	m.Table(1).SetPoison(mem.VPNOf(0x2000), true)
	m.FlushAllTLBs() // force the next access to walk
	o, _ := m.Execute(load(1, 0x2000))
	if handled != 1 || m.PoisonFaults != 1 {
		t.Fatalf("poison handler calls = %d, faults = %d", handled, m.PoisonFaults)
	}
	if o.Latency < 12345 {
		t.Errorf("injected latency not charged: %d", o.Latency)
	}
	// Handler unpoisoned: next walk is clean.
	m.FlushAllTLBs()
	m.Execute(load(1, 0x2000))
	if handled != 1 {
		t.Errorf("PTE not unpoisoned by handler")
	}
}

func TestPMUCountsEvents(t *testing.T) {
	m := testMachine(t, 64, 64)
	c := m.CoreFor(1)
	for i := 0; i < 32; i++ {
		m.Execute(load(1, uint64(i)*4096))
	}
	if c.PMU.Raw(pmu.EvLLCMiss) != 32 {
		t.Errorf("LLC misses = %d, want 32 (all cold)", c.PMU.Raw(pmu.EvLLCMiss))
	}
	if c.PMU.Raw(pmu.EvSTLBMiss) != 32 {
		t.Errorf("STLB misses = %d, want 32 (all cold)", c.PMU.Raw(pmu.EvSTLBMiss))
	}
}

func TestRetireObserverOverheadCharged(t *testing.T) {
	m := testMachine(t, 16, 16)
	m.AddObserver(observerFunc(func(o *trace.Outcome, ops int) int64 { return 1000 }))
	before := m.CoreFor(1).Now()
	o, _ := m.Execute(load(1, 0x1000))
	if o.Now-before < 1000 {
		t.Errorf("observer overhead not charged to the core clock")
	}
}

type observerFunc func(o *trace.Outcome, ops int) int64

func (f observerFunc) ObserveRetire(o *trace.Outcome, ops int) int64 { return f(o, ops) }

func TestSoftCostScaling(t *testing.T) {
	cfg := testConfig()
	cfg.SoftCostDiv = 1000
	m, err := NewMachine(cfg, mem.DefaultTiers(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SoftCost(2000); got != 2 {
		t.Errorf("SoftCost(2000) = %d, want 2", got)
	}
	if got := m.SoftCost(1); got != 1 {
		t.Errorf("SoftCost(1) = %d, want floor of 1", got)
	}
	if got := m.SoftCost(0); got != 0 {
		t.Errorf("SoftCost(0) = %d, want 0", got)
	}
}

func TestOutOfMemoryErrorSurfaces(t *testing.T) {
	m := testMachine(t, 1, 1)
	m.Execute(load(1, 0x0000))
	m.Execute(load(1, 0x1000))
	if _, err := m.Execute(load(1, 0x2000)); err == nil {
		t.Errorf("third page on a 2-frame machine did not error")
	}
}

func TestMachineNowIsMaxCoreClock(t *testing.T) {
	m := testMachine(t, 64, 64)
	m.Execute(load(1, 0x1000)) // core 0
	m.Execute(load(2, 0x1000)) // core 1
	m.Core(0).AdvanceClock(1_000_000)
	if m.Now() != m.Core(0).Now() {
		t.Errorf("Now() = %d, want core 0's %d", m.Now(), m.Core(0).Now())
	}
}

func TestHintAndPoisonBothFire(t *testing.T) {
	m := testMachine(t, 16, 16)
	m.Execute(load(1, 0x4000))
	var hints, poisons int
	m.SetHintFaultHandler(func(o *trace.Outcome, _ mem.PFN) int64 {
		hints++
		return 100
	})
	m.SetPoisonHandler(func(o *trace.Outcome, _ mem.PFN) (int64, bool) {
		poisons++
		return 200, true
	})
	tb := m.Table(1)
	tb.SetProtNone(mem.VPNOf(0x4000), true)
	tb.SetPoison(mem.VPNOf(0x4000), true)
	m.FlushAllTLBs()
	o, err := m.Execute(load(1, 0x4000))
	if err != nil {
		t.Fatal(err)
	}
	if hints != 1 || poisons != 1 {
		t.Errorf("handlers fired %d/%d, want 1/1", hints, poisons)
	}
	if o.Latency < 300 {
		t.Errorf("both handler latencies not charged: %d", o.Latency)
	}
	pte, _ := tb.Resolve(mem.VPNOf(0x4000))
	if pte.ProtNone() {
		t.Errorf("hint bit not consumed")
	}
	if pte.Poisoned() {
		t.Errorf("poison not cleared despite unpoison=true")
	}
}

func TestHugePageAccessesAcrossChunk(t *testing.T) {
	cfg := testConfig()
	cfg.CtxSwitchNS = 500
	m, err := NewMachine(cfg, mem.DefaultTiers(2*mem.HugePages, mem.HugePages))
	if err != nil {
		t.Fatal(err)
	}
	m.SetHugeHint(func(pid int, vpn mem.VPN) bool { return true })
	// Touch every subpage; exactly one fault, consistent frames.
	base, _ := func() (mem.PFN, bool) {
		m.Execute(load(1, 0))
		return m.Table(1).Frame(0)
	}()
	for i := uint64(0); i < mem.HugePages; i++ {
		o, err := m.Execute(load(1, i*4096))
		if err != nil {
			t.Fatal(err)
		}
		if mem.PFNOf(o.PAddr) != base+mem.PFN(i) {
			t.Fatalf("subpage %d translated to frame %d, want %d", i, mem.PFNOf(o.PAddr), base+mem.PFN(i))
		}
	}
	if m.MinorFaults != 1 {
		t.Errorf("faults = %d, want 1 for the whole chunk", m.MinorFaults)
	}
	// The single PMD A bit covers the chunk.
	pte, huge := m.Table(1).Resolve(0)
	if !huge || !pte.Accessed() {
		t.Errorf("PMD leaf state wrong: huge=%v A=%v", huge, pte.Accessed())
	}
}

// TestTLBSeparatesAddressSpaces runs two PIDs on one core over the
// same virtual page. Each must fault in and then read its own frame:
// an untagged TLB would hand the second PID the first one's
// translation.
func TestTLBSeparatesAddressSpaces(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 1
	m, err := NewMachine(cfg, mem.DefaultTiers(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	const va = 0x7000
	for _, pid := range []int{1, 2} {
		if _, err := m.Execute(store(pid, va)); err != nil {
			t.Fatal(err)
		}
	}
	if m.MinorFaults != 2 {
		t.Fatalf("%d minor faults, want one per PID", m.MinorFaults)
	}
	f1, f2 := mustFrame(t, m, 1, va), mustFrame(t, m, 2, va)
	if f1 == f2 {
		t.Fatalf("both PIDs map vpn %#x to frame %d", mem.VPNOf(va), f1)
	}
	for i := 0; i < 3; i++ {
		for _, p := range []struct {
			pid  int
			want mem.PFN
		}{{1, f1}, {2, f2}} {
			pid, want := p.pid, p.want
			o, err := m.Execute(load(pid, va+8))
			if err != nil {
				t.Fatal(err)
			}
			if got := mem.PFN(o.PAddr >> mem.PageShift); got != want || o.TLBMiss {
				t.Errorf("pid %d read frame %d (TLB miss %v), want its own frame %d from the TLB", pid, got, o.TLBMiss, want)
			}
		}
	}
	// A page flush drops only the named process's translation.
	m.FlushPage(1, mem.VPNOf(va))
	if o, _ := m.Execute(load(2, va)); o.TLBMiss {
		t.Errorf("flushing pid 1's page dropped pid 2's translation")
	}
	if o, _ := m.Execute(load(1, va)); !o.TLBMiss {
		t.Errorf("pid 1's translation survived its page flush")
	}
}

// TestExecuteRejectsAddressBeyondVPNSpace checks that a reference past
// the 48-bit virtual address space is an error. Its VPN's bit 36 would
// otherwise read as address-space id 1: on one core, PID 10 (id 0)
// touching 1<<48|0x1000 would hit PID 11's (id 1) translation of 0x1000.
func TestExecuteRejectsAddressBeyondVPNSpace(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 1
	m, err := NewMachine(cfg, mem.DefaultTiers(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []trace.Ref{load(10, 0x2000), load(11, 0x1000)} {
		if _, err := m.Execute(r); err != nil {
			t.Fatal(err)
		}
	}
	if o, err := m.Execute(load(10, 1<<48|0x1000)); err == nil {
		t.Errorf("vaddr 1<<48|0x1000 executed (paddr %#x)", o.PAddr)
	}
}

// TestNewMachineRejectsUntaggableMemory checks the frame cap the 32-bit
// cache tags impose, without allocating the rejected machine.
func TestNewMachineRejectsUntaggableMemory(t *testing.T) {
	for _, degree := range []int{0, 2} {
		cfg := testConfig()
		cfg.PrefetchDegree = degree
		limit := maxFrames(degree)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewMachine(cfg, mem.DefaultTiers(limit, 1))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("degree %d: %d frames accepted, cap is %d", degree, limit+1, limit)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("degree %d: rejecting %d frames allocated %d bytes", degree, limit+1, grew)
		}
	}
}

// TestNewMachineRejectsBadGeometry checks that a TLB or cache geometry
// the levels cannot hold comes back from NewMachine as an error, not a
// panic: a set count that is not a power of two, or a cache level with
// more ways than its recency order packs.
func TestNewMachineRejectsBadGeometry(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  func(*Config)
	}{
		{"L1TLB 6 sets", func(cfg *Config) { cfg.L1TLB = tlb.Config{Entries: 24, Ways: 4} }},
		{"L1TLB zero ways", func(cfg *Config) { cfg.L1TLB = tlb.Config{Entries: 16} }},
		{"L2TLB 6 sets", func(cfg *Config) { cfg.L2TLB = tlb.Config{Entries: 24, Ways: 4} }},
		{"L1D 17 ways", func(cfg *Config) { cfg.L1D = cache.Config{SizeBytes: 17 * 4 * cache.LineSize, Ways: 17} }},
		{"L2 6 sets", func(cfg *Config) { cfg.L2 = cache.Config{SizeBytes: 24 * cache.LineSize, Ways: 4} }},
		{"LLC 17 ways", func(cfg *Config) { cfg.LLC = cache.Config{SizeBytes: 17 * 64 * cache.LineSize, Ways: 17} }},
		{"LLC zero ways", func(cfg *Config) { cfg.LLC = cache.Config{SizeBytes: 64 << 10} }},
		{"LLC 6 sets", func(cfg *Config) { cfg.LLC = cache.Config{SizeBytes: 24 * cache.LineSize, Ways: 4} }},
	} {
		cfg := testConfig()
		c.bad(&cfg)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: NewMachine panicked: %v", c.name, r)
				}
			}()
			if _, err := NewMachine(cfg, mem.DefaultTiers(16, 16)); err == nil {
				t.Errorf("%s: NewMachine accepted the geometry", c.name)
			}
		}()
	}
}

// TestMaxFramesBoundary checks that the cap is tight: at maxFrames the
// highest line a prefetch can name fits cache.MaxLine, one frame more
// and it does not.
func TestMaxFramesBoundary(t *testing.T) {
	if got := maxFrames(0); got != 1<<26-1 {
		t.Errorf("maxFrames(0) = %d, want 2^26-1", got)
	}
	const linesPerFrame = mem.PageSize / cache.LineSize
	for _, degree := range []int{0, 1, 2, 4, 7} {
		f := uint64(maxFrames(degree))
		reach := uint64(degree + 1)
		if top := reach * (f*linesPerFrame - 1); top > cache.MaxLine {
			t.Errorf("degree %d: %d frames name line %d > MaxLine", degree, f, top)
		}
		if top := reach * ((f+1)*linesPerFrame - 1); top <= cache.MaxLine {
			t.Errorf("degree %d: cap %d is not tight, %d frames name at most line %d", degree, f, f+1, top)
		}
	}
}
