package abit

import (
	"testing"

	"tieredmem/internal/cache"
	"tieredmem/internal/cpu"
	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/tlb"
	"tieredmem/internal/trace"
)

func testMachine(t *testing.T, frames int) *cpu.Machine {
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
	m, err := cpu.NewMachine(cfg, mem.DefaultTiers(frames, frames))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func touch(t *testing.T, m *cpu.Machine, pid int, vaddr uint64) {
	t.Helper()
	if _, err := m.Execute(trace.Ref{PID: pid, IP: 0x400000, VAddr: vaddr, Kind: trace.Load}); err != nil {
		t.Fatal(err)
	}
}

func TestScanHarvestsAndClears(t *testing.T) {
	m := testMachine(t, 64)
	sc, err := New(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	touch(t, m, 1, 0x1000)
	touch(t, m, 1, 0x2000)
	res := sc.Scan(0, []int{1})
	if res.PagesAccessed != 2 || res.PTEsVisited != 2 {
		t.Fatalf("scan = %+v, want 2 accessed of 2 visited", res)
	}
	// A bits cleared: a second scan with no intervening accesses
	// finds nothing.
	res2 := sc.Scan(0, []int{1})
	if res2.PagesAccessed != 0 {
		t.Errorf("second scan found %d accessed pages, want 0", res2.PagesAccessed)
	}
	// Page descriptors credited.
	pfn, _ := m.Table(1).Frame(mem.VPNOf(0x1000))
	if m.Phys.Page(pfn).Epoch.Abit != 1 {
		t.Errorf("Epoch.Abit = %d, want 1", m.Phys.Page(pfn).Epoch.Abit)
	}
}

func TestScanOnlyListedPIDs(t *testing.T) {
	m := testMachine(t, 64)
	sc, _ := New(DefaultConfig(), m)
	touch(t, m, 1, 0x1000)
	touch(t, m, 2, 0x1000)
	res := sc.Scan(0, []int{1})
	if res.PTEsVisited != 1 {
		t.Errorf("visited %d PTEs, want only pid 1's single page", res.PTEsVisited)
	}
}

func TestScanCostProportionalToPTEs(t *testing.T) {
	m := testMachine(t, 256)
	cfg := DefaultConfig()
	cfg.PerPTECost = 10
	sc, _ := New(cfg, m)
	for i := uint64(0); i < 50; i++ {
		touch(t, m, 1, i*4096)
	}
	res := sc.Scan(0, []int{1})
	if res.CostNS != 500 {
		t.Errorf("cost = %d, want 50 PTEs x 10ns", res.CostNS)
	}
}

func TestHugeLeafCountsOnceCreditsAll(t *testing.T) {
	m := testMachine(t, 4*mem.HugePages)
	m.SetHugeHint(func(pid int, vpn mem.VPN) bool { return true })
	sc, _ := New(DefaultConfig(), m)
	touch(t, m, 1, 0x0) // faults in a whole huge page
	var hugeSeen bool
	sc.SetLeafObserver(func(now int64, pid int, vpn mem.VPN, pfn mem.PFN, huge bool) {
		hugeSeen = huge
	})
	res := sc.Scan(0, []int{1})
	if res.PagesAccessed != 1 || res.HugeAccessed != 1 || res.PTEsVisited != 1 {
		t.Fatalf("scan = %+v, want one huge leaf", res)
	}
	if !hugeSeen {
		t.Errorf("leaf observer not told about hugeness")
	}
	// All 512 backing descriptors credited: the A bit cannot localize
	// within the chunk.
	base, _ := m.Table(1).Frame(0)
	credited := 0
	for i := 0; i < mem.HugePages; i++ {
		if m.Phys.Page(base+mem.PFN(i)).Epoch.Abit == 1 {
			credited++
		}
	}
	if credited != mem.HugePages {
		t.Errorf("credited %d subpages, want %d", credited, mem.HugePages)
	}
}

func TestScanIfDueSchedule(t *testing.T) {
	m := testMachine(t, 64)
	cfg := DefaultConfig()
	cfg.Interval = 1000
	sc, _ := New(cfg, m)
	touch(t, m, 1, 0x1000)
	if _, ran := sc.ScanIfDue(999, []int{1}); ran {
		t.Errorf("scan ran before the interval")
	}
	if _, ran := sc.ScanIfDue(1000, []int{1}); !ran {
		t.Errorf("scan did not run at the interval")
	}
	if _, ran := sc.ScanIfDue(1500, []int{1}); ran {
		t.Errorf("scan re-ran inside the same interval")
	}
	if _, ran := sc.ScanIfDue(2000, []int{1}); !ran {
		t.Errorf("scan did not run at the next interval")
	}
}

func TestDisabledScannerSkipsButKeepsSchedule(t *testing.T) {
	m := testMachine(t, 64)
	cfg := DefaultConfig()
	cfg.Interval = 1000
	sc, _ := New(cfg, m)
	touch(t, m, 1, 0x1000)
	sc.Disable()
	if _, ran := sc.ScanIfDue(1000, []int{1}); ran {
		t.Errorf("disabled scanner ran")
	}
	sc.Enable()
	if _, ran := sc.ScanIfDue(2000, []int{1}); !ran {
		t.Errorf("re-enabled scanner did not resume")
	}
}

func TestShootdownModeFlushesAndCharges(t *testing.T) {
	m := testMachine(t, 64)
	cfg := DefaultConfig()
	cfg.Shootdown = true
	sc, _ := New(cfg, m)
	touch(t, m, 1, 0x1000)
	res := sc.Scan(0, []int{1})
	// With the shootdown, the next access must walk (and re-set A)
	// immediately.
	touch(t, m, 1, 0x1000)
	pte, _ := m.Table(1).Resolve(mem.VPNOf(0x1000))
	if !pte.Accessed() {
		t.Errorf("A bit not promptly re-set after shootdown scan")
	}
	if res.CostNS <= int64(res.PTEsVisited)*cfg.PerPTECost {
		t.Errorf("shootdown cost not charged: %d", res.CostNS)
	}
}

func TestNoShootdownStaleness(t *testing.T) {
	// Without the shootdown, a TLB-resident page's A bit stays clear:
	// the paper's documented artifact, end to end through the driver.
	m := testMachine(t, 64)
	sc, _ := New(DefaultConfig(), m)
	touch(t, m, 1, 0x1000)
	sc.Scan(0, []int{1})
	touch(t, m, 1, 0x1000) // TLB hit: no walk
	res := sc.Scan(0, []int{1})
	if res.PagesAccessed != 0 {
		t.Errorf("stale-TLB page reported accessed; shootdown-free semantics broken")
	}
}

func TestBadConfig(t *testing.T) {
	m := testMachine(t, 16)
	if _, err := New(Config{Interval: 0}, m); err == nil {
		t.Errorf("zero interval accepted")
	}
	if _, err := New(Config{Interval: 1, PerPTECost: -1}, m); err == nil {
		t.Errorf("negative cost accepted")
	}
}

func TestFaultAbortedScanVisitsPrefix(t *testing.T) {
	m := testMachine(t, 256)
	sc, _ := New(DefaultConfig(), m)
	const pages = 50
	for i := uint64(0); i < pages; i++ {
		touch(t, m, 1, i*4096)
	}
	spec, _ := fault.ParseSpec("abit.abort=1")
	sc.SetFaultPlane(fault.New(spec, 11))
	res := sc.Scan(0, []int{1})
	if !res.Aborted {
		t.Fatalf("rate-1 abort did not fire")
	}
	if res.PTEsVisited >= pages {
		t.Errorf("aborted scan visited all %d PTEs", res.PTEsVisited)
	}
	if sc.Stats().Aborts != 1 {
		t.Errorf("Aborts = %d, want 1", sc.Stats().Aborts)
	}
	// A bits past the abort point survived: a clean rescan finds the
	// un-harvested remainder (and only it).
	sc.SetFaultPlane(nil)
	res2 := sc.Scan(0, []int{1})
	if got := res.PagesAccessed + res2.PagesAccessed; got != pages {
		t.Errorf("aborted + clean scans harvested %d pages, want %d", got, pages)
	}
	if res2.PagesAccessed == 0 {
		t.Errorf("abort left nothing for the rescan; abort landed after the last page")
	}
}

func TestFaultAbortDeterministic(t *testing.T) {
	spec, _ := fault.ParseSpec("abit.abort=0.5")
	run := func() []int {
		m := testMachine(t, 256)
		sc, _ := New(DefaultConfig(), m)
		for i := uint64(0); i < 40; i++ {
			touch(t, m, 1, i*4096)
		}
		sc.SetFaultPlane(fault.New(spec, 5))
		var visited []int
		for e := 0; e < 8; e++ {
			res := sc.Scan(int64(e), []int{1})
			visited = append(visited, res.PTEsVisited)
		}
		return visited
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at scan %d: %v vs %v", i, a, b)
		}
	}
}

func TestQuarantineSticky(t *testing.T) {
	m := testMachine(t, 64)
	sc, _ := New(DefaultConfig(), m)
	touch(t, m, 1, 0x1000)
	sc.Quarantine()
	if !sc.Quarantined() || sc.Enabled() {
		t.Fatalf("Quarantine did not disable")
	}
	sc.Enable() // HWPC gate reopening must not resurrect it
	if sc.Enabled() {
		t.Errorf("Enable resurrected a quarantined scanner")
	}
	if _, ran := sc.ScanIfDue(sc.Interval(), []int{1}); ran {
		t.Errorf("quarantined scanner ran")
	}
}

func TestZeroRatePlaneInertScan(t *testing.T) {
	run := func(p *fault.Plane) ScanResult {
		m := testMachine(t, 256)
		sc, _ := New(DefaultConfig(), m)
		for i := uint64(0); i < 30; i++ {
			touch(t, m, 1, i*4096)
		}
		sc.SetFaultPlane(p)
		return sc.Scan(0, []int{1})
	}
	if a, b := run(nil), run(fault.New(fault.Spec{}, 42)); a != b {
		t.Errorf("zero-rate plane perturbed the scan: %+v vs %+v", a, b)
	}
}
