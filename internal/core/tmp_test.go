package core

import (
	"testing"
	"unsafe"

	"tieredmem/internal/cache"
	"tieredmem/internal/cpu"
	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/tlb"
	"tieredmem/internal/trace"
)

func testMachine(t *testing.T, frames int) *cpu.Machine {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.Cores = 2
	cfg.PrefetchDegree = 0
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

// smallConfig keeps intervals tiny so ticks fire within a test.
func smallConfig() Config {
	cfg := DefaultConfig(64)
	cfg.Abit.Interval = 10_000
	cfg.HWPC.Window = 1_000
	cfg.FilterInterval = 10_000
	return cfg
}

// TestPageStatSize pins the harvest record: a harvest holds one per
// page with evidence, so its width scales the harvest buffer.
func TestPageStatSize(t *testing.T) {
	if got := unsafe.Sizeof(PageStat{}); got != 40 {
		t.Errorf("PageStat is %d bytes, want 40", got)
	}
}

func TestMethodString(t *testing.T) {
	if MethodAbit.String() != "abit" || MethodTrace.String() != "ibs" || MethodCombined.String() != "tmp" {
		t.Errorf("method names wrong")
	}
	if Method(9).String() != "method(9)" {
		t.Errorf("unknown method name wrong")
	}
}

// TestParseMethod pins ParseMethod as String's inverse over every
// method, plus tmpsim's aliases, and rejects anything else.
func TestParseMethod(t *testing.T) {
	for _, m := range append(Methods, MethodDev) {
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, tc := range []struct {
		alias string
		m     Method
	}{{"trace", MethodTrace}, {"combined", MethodCombined}, {"dev", MethodDev}} {
		if got, err := ParseMethod(tc.alias); err != nil || got != tc.m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", tc.alias, got, err, tc.m)
		}
	}
	for _, bad := range []string{"", "bogus", "TMP", "method(9)"} {
		if _, err := ParseMethod(bad); err == nil {
			t.Errorf("ParseMethod(%q) accepted", bad)
		}
	}
}

func TestRankPerMethod(t *testing.T) {
	ps := PageStat{Evidence: mem.Evidence{Abit: 2, Trace: 3}}
	if ps.Rank(MethodAbit) != 2 || ps.Rank(MethodTrace) != 3 || ps.Rank(MethodCombined) != 5 {
		t.Errorf("ranks = %d/%d/%d", ps.Rank(MethodAbit), ps.Rank(MethodTrace), ps.Rank(MethodCombined))
	}
}

func TestProcessFilter(t *testing.T) {
	m := testMachine(t, 64)
	usage := map[int][2]float64{
		1: {0.50, 0.01}, // CPU-heavy: in
		2: {0.01, 0.50}, // memory-heavy: in
		3: {0.01, 0.01}, // idle: out
		4: {0.05, 0.00}, // exactly at the CPU bound: in
	}
	p, err := New(smallConfig(), m, func(pid int) (float64, float64) {
		u := usage[pid]
		return u[0], u[1]
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 1; pid <= 4; pid++ {
		p.Register(pid)
	}
	got := map[int]bool{}
	for _, pid := range p.Profiled() {
		got[pid] = true
	}
	if !got[1] || !got[2] || got[3] || !got[4] {
		t.Errorf("profiled set = %v, want {1,2,4}", p.Profiled())
	}
}

func TestRegisterIdempotent(t *testing.T) {
	m := testMachine(t, 64)
	p, _ := New(smallConfig(), m, nil)
	p.Register(1)
	p.Register(1)
	if len(p.Profiled()) != 1 {
		t.Errorf("duplicate registration: %v", p.Profiled())
	}
}

func TestFilterReevaluatedOnInterval(t *testing.T) {
	m := testMachine(t, 64)
	pass := false
	p, _ := New(smallConfig(), m, func(pid int) (float64, float64) {
		if pass {
			return 1, 1
		}
		return 0, 0
	})
	p.Register(1)
	if len(p.Profiled()) != 0 {
		t.Fatalf("idle process profiled")
	}
	pass = true
	p.Tick(10_000) // filter interval elapsed
	if len(p.Profiled()) != 1 {
		t.Errorf("filter not re-evaluated at the interval")
	}
}

func TestHarvestAggregatesAndResets(t *testing.T) {
	m := testMachine(t, 64)
	p, _ := New(smallConfig(), m, nil)
	p.Register(1)
	// Touch pages, then force a scan so A-bit evidence exists.
	for i := uint64(0); i < 8; i++ {
		if _, err := m.Execute(trace.Ref{PID: 1, VAddr: i * 4096, Kind: trace.Load}); err != nil {
			t.Fatal(err)
		}
	}
	p.Abit.Scan(0, []int{1})
	ep := p.HarvestEpoch()
	if len(ep.Pages) != 8 {
		t.Fatalf("harvested %d pages, want 8", len(ep.Pages))
	}
	for _, ps := range ep.Pages {
		if ps.Abit != 1 {
			t.Errorf("page %v Abit = %d, want 1", ps.Key, ps.Abit)
		}
		if ps.True != 1 {
			t.Errorf("page %v True = %d, want 1 (one cold miss)", ps.Key, ps.True)
		}
	}
	// Second harvest with no activity: empty.
	ep2 := p.HarvestEpoch()
	if len(ep2.Pages) != 0 {
		t.Errorf("second harvest has %d pages, want 0 (counters reset)", len(ep2.Pages))
	}
	if ep2.Epoch != 1 {
		t.Errorf("epoch index = %d, want 1", ep2.Epoch)
	}
}

func TestTickChargesDaemonCore(t *testing.T) {
	m := testMachine(t, 64)
	cfg := smallConfig()
	cfg.Gating = false
	p, _ := New(cfg, m, nil)
	p.Register(1)
	for i := uint64(0); i < 32; i++ {
		m.Execute(trace.Ref{PID: 1, VAddr: i * 4096, Kind: trace.Load})
	}
	before := m.Core(0).Now()
	p.Tick(cfg.Abit.Interval) // scan due
	if m.Core(0).Now() <= before {
		t.Errorf("A-bit scan cost not charged to the daemon core")
	}
}

func TestRankedPagesOrderingAndTieBreaks(t *testing.T) {
	stats := EpochStats{Pages: []PageStat{
		{Key: PageKey{1, 10}, Tier: mem.SlowTier, Evidence: mem.Evidence{Abit: 1, Trace: 0}},
		{Key: PageKey{1, 11}, Tier: mem.FastTier, Evidence: mem.Evidence{Abit: 1, Trace: 0}},
		{Key: PageKey{1, 12}, Tier: mem.SlowTier, Evidence: mem.Evidence{Abit: 1, Trace: 5}},
		{Key: PageKey{1, 13}, Tier: mem.SlowTier, Evidence: mem.Evidence{Abit: 0, Trace: 0}}, // rank 0: excluded
		{Key: PageKey{2, 9}, Tier: mem.SlowTier, Evidence: mem.Evidence{Abit: 1, Trace: 0}},
	}}
	ranked := RankedPages(stats, MethodCombined)
	if len(ranked) != 4 {
		t.Fatalf("ranked %d pages, want 4 (zero-rank excluded)", len(ranked))
	}
	if ranked[0].Key != (PageKey{1, 12}) {
		t.Errorf("highest rank not first: %v", ranked[0].Key)
	}
	// Tie group (rank 1): fast-tier resident first (hysteresis), then
	// by (PID, VPN).
	if ranked[1].Key != (PageKey{1, 11}) {
		t.Errorf("fast-tier resident not preferred on tie: %v", ranked[1].Key)
	}
	if ranked[2].Key != (PageKey{1, 10}) || ranked[3].Key != (PageKey{2, 9}) {
		t.Errorf("deterministic tie-break broken: %v, %v", ranked[2].Key, ranked[3].Key)
	}
}

func TestRanksOf(t *testing.T) {
	stats := EpochStats{Pages: []PageStat{
		{Key: PageKey{1, 1}, Evidence: mem.Evidence{Abit: 2, Trace: 1}},
		{Key: PageKey{1, 2}, Evidence: mem.Evidence{Abit: 0, Trace: 0}},
	}}
	ranks := RanksOf(stats, MethodCombined)
	if ranks.Len() != 1 || ranks.Get(PageKey{1, 1}) != 3 {
		t.Errorf("RanksOf: Len=%d Get={1,1}=%d", ranks.Len(), ranks.Get(PageKey{1, 1}))
	}
	if ranks.Get(PageKey{1, 2}) != 0 {
		t.Errorf("zero-rank page should report rank 0, got %d", ranks.Get(PageKey{1, 2}))
	}
	if (Ranks{}).Get(PageKey{1, 1}) != 0 || (Ranks{}).Len() != 0 {
		t.Errorf("zero-value Ranks must behave as an empty table")
	}

	// The lazy table against an eagerly built one: every harvested key,
	// a missing key, a crafted harvest with duplicate keys (the last
	// nonzero rank wins) and an empty harvest, with Len agreeing whether
	// it or Get forces the build. Every case runs through fresh tables
	// (RanksOf) and through two RankTables reused across all of them,
	// which shrink, grow and go empty in turn.
	dup := tieHeavyStats(40, 3)
	dup.Pages = append(dup.Pages,
		PageStat{Key: dup.Pages[5].Key, Evidence: mem.Evidence{Abit: 9, Trace: 9}},
		PageStat{Key: dup.Pages[7].Key, Evidence: mem.Evidence{Abit: 4}},
		PageStat{Key: dup.Pages[7].Key, Evidence: mem.Evidence{Trace: 2}},
	)
	var lenTable, getTable RankTable
	for _, stats := range []EpochStats{tieHeavyStats(100, 9), dup, {}, tieHeavyStats(300, 4)} {
		for _, m := range []Method{MethodAbit, MethodTrace, MethodCombined} {
			eager := make(map[PageKey]uint64)
			for i := range stats.Pages {
				if r := stats.Pages[i].Rank(m); r > 0 {
					eager[stats.Pages[i].Key] = r
				}
			}
			for _, tabs := range []struct {
				name         string
				byLen, byGet Ranks
			}{
				{"RanksOf", RanksOf(stats, m), RanksOf(stats, m)},
				{"RankTable", lenTable.Of(stats, m), getTable.Of(stats, m)},
			} {
				if got := tabs.byLen.Len(); got != len(eager) {
					t.Fatalf("%s m=%v: Len before any Get = %d, want %d", tabs.name, m, got, len(eager))
				}
				byGet := tabs.byGet
				if got := byGet.Get(PageKey{PID: 999, VPN: 1}); got != 0 {
					t.Fatalf("%s m=%v: missing key ranks %d, want 0", tabs.name, m, got)
				}
				for _, ps := range stats.Pages {
					if got := byGet.Get(ps.Key); got != eager[ps.Key] {
						t.Fatalf("%s m=%v: Get(%v) = %d, want %d", tabs.name, m, ps.Key, got, eager[ps.Key])
					}
				}
				if byGet.Len() != len(eager) {
					t.Fatalf("%s m=%v: Len after Get = %d, want %d", tabs.name, m, byGet.Len(), len(eager))
				}
			}
		}
	}
}

func TestTraceAccumulationIntoDescriptors(t *testing.T) {
	m := testMachine(t, 64)
	cfg := smallConfig()
	cfg.IBS.Period = 1 // tag every op
	cfg.Gating = false
	p, _ := New(cfg, m, nil)
	p.Register(1)
	var observed int
	p.SetSampleObserver(func(s trace.Sample) { observed++ })
	// Cold misses are memory-sourced: samples are delivered.
	for i := uint64(0); i < 8; i++ {
		m.Execute(trace.Ref{PID: 1, VAddr: i * 4096, Kind: trace.Load})
	}
	ep := p.HarvestEpoch()
	var traceSum uint32
	for _, ps := range ep.Pages {
		traceSum += ps.Trace
	}
	if traceSum == 0 {
		t.Errorf("no trace evidence accumulated at period 1")
	}
	if observed == 0 {
		t.Errorf("sample observer never invoked")
	}
}

func TestOverheadNSAccessors(t *testing.T) {
	m := testMachine(t, 64)
	p, _ := New(smallConfig(), m, nil)
	ibsNS, abitNS, hwpcNS := p.OverheadNS()
	if ibsNS != 0 || abitNS != 0 || hwpcNS != 0 {
		t.Errorf("fresh profiler reports overhead %d/%d/%d", ibsNS, abitNS, hwpcNS)
	}
}

func TestQuarantineDegradesToSurvivor(t *testing.T) {
	m := testMachine(t, 64)
	cfg := smallConfig()
	cfg.IBS.Period = 1
	cfg.Gating = false
	cfg.QuarantineMinEvents = 10
	p, _ := New(cfg, m, nil)
	p.Register(1)
	// Every delivered sample drops: the IBS fault rate is 100%.
	spec, _ := fault.ParseSpec("ibs.drop=1")
	p.SetFaultPlane(fault.New(spec, 1))
	tr := telemetry.New()
	p.SetTracer(tr)
	for i := uint64(0); i < 32; i++ {
		m.Execute(trace.Ref{PID: 1, VAddr: i * 4096, Kind: trace.Load})
	}
	p.HarvestEpoch()
	if !p.IBS.Quarantined() {
		t.Fatalf("100%%-lossy IBS not quarantined (drops=%d)", p.IBS.Stats().FaultDrops)
	}
	if got := p.EffectiveMethod(MethodCombined); got != MethodAbit {
		t.Errorf("EffectiveMethod(tmp) = %v, want abit", got)
	}
	if got := p.EffectiveMethod(MethodTrace); got != MethodAbit {
		t.Errorf("EffectiveMethod(ibs) = %v, want abit", got)
	}
	if got := p.EffectiveMethod(MethodAbit); got != MethodAbit {
		t.Errorf("EffectiveMethod(abit) = %v, want abit unchanged", got)
	}
	if qs := p.QuarantinedMechanisms(); len(qs) != 1 || qs[0] != "ibs" {
		t.Errorf("QuarantinedMechanisms = %v, want [ibs]", qs)
	}
	// The decision left its evidence in the event stream.
	found := false
	for w := tr.Events(); w.Next(); {
		e := w.Event()
		if e.Kind == telemetry.KindQuarantine && e.Name == "ibs" {
			found = true
			if e.A == 0 || e.B == 0 {
				t.Errorf("quarantine event has empty evidence: %+v", e)
			}
		}
	}
	if !found {
		t.Errorf("no KindQuarantine event emitted")
	}
}

func TestQuarantineNeedsMinimumEvidence(t *testing.T) {
	m := testMachine(t, 64)
	cfg := smallConfig()
	cfg.IBS.Period = 1
	cfg.Gating = false
	cfg.QuarantineMinEvents = 1000 // far more than this test generates
	p, _ := New(cfg, m, nil)
	p.Register(1)
	spec, _ := fault.ParseSpec("ibs.drop=1")
	p.SetFaultPlane(fault.New(spec, 1))
	for i := uint64(0); i < 8; i++ {
		m.Execute(trace.Ref{PID: 1, VAddr: i * 4096, Kind: trace.Load})
	}
	p.HarvestEpoch()
	if p.IBS.Quarantined() {
		t.Errorf("quarantined on %d attempts, below the %d minimum",
			8, cfg.QuarantineMinEvents)
	}
}

func TestQuarantineDisabledAtZeroThreshold(t *testing.T) {
	m := testMachine(t, 64)
	cfg := smallConfig()
	cfg.IBS.Period = 1
	cfg.Gating = false
	cfg.QuarantineThreshold = 0
	cfg.QuarantineMinEvents = 1
	p, _ := New(cfg, m, nil)
	p.Register(1)
	spec, _ := fault.ParseSpec("ibs.drop=1")
	p.SetFaultPlane(fault.New(spec, 1))
	for i := uint64(0); i < 32; i++ {
		m.Execute(trace.Ref{PID: 1, VAddr: i * 4096, Kind: trace.Load})
	}
	p.HarvestEpoch()
	if p.IBS.Quarantined() {
		t.Errorf("quarantine fired with threshold 0 (disabled)")
	}
}

func TestEffectiveMethodBothQuarantined(t *testing.T) {
	m := testMachine(t, 64)
	p, _ := New(smallConfig(), m, nil)
	p.IBS.Quarantine()
	p.Abit.Quarantine()
	for _, meth := range Methods {
		if got := p.EffectiveMethod(meth); got != meth {
			t.Errorf("EffectiveMethod(%v) = %v with nothing to degrade to", meth, got)
		}
	}
}
