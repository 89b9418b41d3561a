package ibs

import (
	"testing"

	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/trace"
)

func memOutcome() *trace.Outcome {
	return &trace.Outcome{
		Ref:    trace.Ref{PID: 1, IP: 0x400000, VAddr: 0x1000, Kind: trace.Load},
		PAddr:  0x1000,
		Source: trace.SrcTier1,
	}
}

func cacheOutcome() *trace.Outcome {
	o := memOutcome()
	o.Source = trace.SrcL2
	return o
}

func TestPeriodForRate(t *testing.T) {
	if PeriodForRate(262144, Rate1x) != 262144 {
		t.Errorf("1x period wrong")
	}
	if PeriodForRate(262144, Rate4x) != 65536 {
		t.Errorf("4x period = %d, want 65536", PeriodForRate(262144, Rate4x))
	}
	if PeriodForRate(262144, Rate8x) != 32768 {
		t.Errorf("8x period wrong")
	}
	if PeriodForRate(2, 8) != 1 {
		t.Errorf("period floor broken")
	}
	if PeriodForRate(100, 0) != 100 {
		t.Errorf("rate 0 not treated as 1")
	}
	// A base that is not positive is no period to clamp: it passes
	// through for New to reject, instead of sampling every op.
	for _, base := range []int{0, -4} {
		if got := PeriodForRate(base, Rate4x); got != base {
			t.Errorf("PeriodForRate(%d, 4x) = %d, want %d", base, got, base)
		}
	}
}

func TestSamplingCadence(t *testing.T) {
	cfg := DefaultConfig(30)
	cfg.PerSampleCost = 0
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 100 refs x 3 ops = 300 ops at period 30: ~10 tags (the
	// hardware-style period jitter allows +-1).
	o := memOutcome()
	for i := 0; i < 100; i++ {
		e.ObserveRetire(o, 3)
	}
	if got := e.Stats().TaggedOps; got < 9 || got > 11 {
		t.Errorf("tagged ops = %d, want ~10", got)
	}
	// The memory op is the first op of each 3-op group, so about 1/3
	// of tags land on it; with period 30 and groups of 3 the tag
	// offset cycles deterministically.
	if got := e.Stats().MemorySamples; got == 0 || got > 10 {
		t.Errorf("memory samples = %d, want in (0,10]", got)
	}
}

func TestMemoryOnlyFilter(t *testing.T) {
	cfg := DefaultConfig(1) // tag every op
	cfg.MemoryOnly = true
	e, _ := New(cfg, nil)
	e.ObserveRetire(cacheOutcome(), 1)
	e.ObserveRetire(memOutcome(), 1)
	s := e.Stats()
	if s.Delivered != 1 || s.FilteredCache != 1 {
		t.Errorf("delivered/filtered = %d/%d, want 1/1", s.Delivered, s.FilteredCache)
	}
}

func TestPrefetchFilter(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MemoryOnly = false
	e, _ := New(cfg, nil)
	o := cacheOutcome()
	o.PrefetchHit = true
	e.ObserveRetire(o, 1)
	if e.Stats().FilteredPrefix != 1 || e.Stats().Delivered != 0 {
		t.Errorf("prefetch-hit sample not filtered: %+v", e.Stats())
	}
	cfg.IncludePrefetch = true
	e2, _ := New(cfg, nil)
	e2.ObserveRetire(o, 1)
	if e2.Stats().Delivered != 1 {
		t.Errorf("IncludePrefetch ablation did not deliver")
	}
}

func TestEnableDisable(t *testing.T) {
	e, _ := New(DefaultConfig(1), nil)
	e.Disable()
	if e.Enabled() {
		t.Fatalf("Enabled after Disable")
	}
	if extra := e.ObserveRetire(memOutcome(), 1); extra != 0 {
		t.Errorf("disabled engine charged overhead %d", extra)
	}
	if e.Stats().TaggedOps != 0 {
		t.Errorf("disabled engine tagged ops")
	}
	e.Enable()
	e.ObserveRetire(memOutcome(), 1)
	if e.Stats().TaggedOps != 1 {
		t.Errorf("re-enabled engine not sampling")
	}
}

func TestOverheadCharged(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.PerSampleCost = 500
	e, _ := New(cfg, nil)
	extra := e.ObserveRetire(memOutcome(), 1)
	if extra != 500 {
		t.Errorf("per-sample overhead = %d, want 500", extra)
	}
	if e.Stats().OverheadNS != 500 {
		t.Errorf("overhead not accumulated")
	}
}

func TestAccumulatorInvokedOnDrain(t *testing.T) {
	phys, err := mem.NewPhysMem(mem.DefaultTiers(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	pfn, _ := phys.Alloc(mem.FastTier, 1, 1)
	cfg := DefaultConfig(1)
	cfg.RingCapacity = 4
	cfg.RingThreshold = 2
	e, _ := New(cfg, phys)
	var seen []trace.Sample
	e.SetAccumulator(func(s trace.Sample, pd *mem.PageDescriptor) {
		if pd != phys.Page(pfn) {
			t.Errorf("accumulator got wrong descriptor")
		}
		seen = append(seen, s)
	})
	o := memOutcome()
	o.PAddr = pfn.PAddrOf()
	e.ObserveRetire(o, 1)
	e.ObserveRetire(o, 1) // crosses threshold: drain fires
	if len(seen) != 2 {
		t.Fatalf("accumulator saw %d samples, want 2", len(seen))
	}
	if e.Stats().Drains != 1 {
		t.Errorf("Drains = %d, want 1", e.Stats().Drains)
	}
}

func TestFlushDrainsRemainder(t *testing.T) {
	e, _ := New(DefaultConfig(1), nil)
	count := 0
	e.SetAccumulator(func(s trace.Sample, pd *mem.PageDescriptor) { count++ })
	e.ObserveRetire(memOutcome(), 1)
	e.Flush()
	if count != 1 {
		t.Errorf("Flush delivered %d, want 1", count)
	}
}

func TestDrainIntoRaw(t *testing.T) {
	e, _ := New(DefaultConfig(1), nil)
	e.ObserveRetire(memOutcome(), 1)
	out := e.DrainInto(nil)
	if len(out) != 1 || out[0].VAddr != 0x1000 {
		t.Errorf("DrainInto = %+v", out)
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New(Config{Period: 0, RingCapacity: 8}, nil); err == nil {
		t.Errorf("zero period accepted")
	}
	if _, err := New(Config{Period: 1, RingCapacity: 0}, nil); err == nil {
		t.Errorf("zero ring accepted")
	}
}

func TestSamplingStatisticallyUniform(t *testing.T) {
	// Long-run property: tags per N ops converges to N/period
	// regardless of group size.
	cfg := DefaultConfig(1000)
	cfg.PerSampleCost = 0
	e, _ := New(cfg, nil)
	o := memOutcome()
	const refs = 200000
	for i := 0; i < refs; i++ {
		e.ObserveRetire(o, 7)
	}
	wantTags := uint64(refs * 7 / 1000)
	got := e.Stats().TaggedOps
	if got < wantTags-2 || got > wantTags+2 {
		t.Errorf("tags = %d, want ~%d", got, wantTags)
	}
}

func TestBufferedModeCutsPerTagCost(t *testing.T) {
	mk := func(buffered bool) *Engine {
		cfg := DefaultConfig(10)
		cfg.Buffered = buffered
		cfg.RingCapacity = 1 << 20 // avoid threshold drains in this test
		cfg.RingThreshold = 1 << 20
		e, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ibsEng, lwpEng := mk(false), mk(true)
	o := memOutcome()
	for i := 0; i < 10000; i++ {
		ibsEng.ObserveRetire(o, 3)
		lwpEng.ObserveRetire(o, 3)
	}
	if ibsEng.Stats().TaggedOps == 0 {
		t.Fatalf("no tags")
	}
	if lwpEng.Stats().OverheadNS*10 > ibsEng.Stats().OverheadNS {
		t.Errorf("buffered overhead %d not far below per-interrupt %d",
			lwpEng.Stats().OverheadNS, ibsEng.Stats().OverheadNS)
	}
	// Same sampling information either way (jitter streams are
	// per-engine but statistically identical; counts match closely).
	a, b := ibsEng.Stats().Delivered, lwpEng.Stats().Delivered
	diff := int64(a) - int64(b)
	if diff < 0 {
		diff = -diff
	}
	if diff*10 > int64(a)+1 {
		t.Errorf("delivered counts diverge: %d vs %d", a, b)
	}
}

func TestBufferedThresholdChargesInterrupt(t *testing.T) {
	cfg := LWPConfig(1)
	cfg.RingCapacity = 8
	cfg.RingThreshold = 4
	cfg.MemoryOnly = false
	e, _ := New(cfg, nil)
	o := memOutcome()
	var before int64
	for i := 0; i < 3; i++ {
		e.ObserveRetire(o, 1)
	}
	before = e.Stats().OverheadNS
	e.ObserveRetire(o, 1) // fourth delivery crosses the threshold
	if e.Stats().Drains != 1 {
		t.Fatalf("drains = %d, want 1", e.Stats().Drains)
	}
	if e.Stats().OverheadNS-before < cfg.PerSampleCost {
		t.Errorf("threshold interrupt cost not charged")
	}
}

func TestFaultDropsSamples(t *testing.T) {
	spec, _ := fault.ParseSpec("ibs.drop=1")
	cfg := DefaultConfig(1)
	e, _ := New(cfg, nil)
	e.SetFaultPlane(fault.New(spec, 1))
	for i := 0; i < 10; i++ {
		e.ObserveRetire(memOutcome(), 1)
	}
	s := e.Stats()
	if s.Delivered != 0 || s.FaultDrops != 10 {
		t.Errorf("delivered/dropped = %d/%d, want 0/10", s.Delivered, s.FaultDrops)
	}
	// Tagging overhead was still paid: the interrupt fired, only the
	// record was lost.
	if s.OverheadNS == 0 {
		t.Errorf("dropped samples charged no tagging overhead")
	}
	if lost, attempts := s.FaultRate(); lost != 10 || attempts != 10 {
		t.Errorf("FaultRate = %d/%d, want 10/10", lost, attempts)
	}
}

func TestFaultDropDeterministic(t *testing.T) {
	spec, _ := fault.ParseSpec("ibs.drop=0.5")
	run := func(seed int64) Stats {
		e, _ := New(DefaultConfig(1), nil)
		e.SetFaultPlane(fault.New(spec, seed))
		for i := 0; i < 200; i++ {
			e.ObserveRetire(memOutcome(), 1)
		}
		return e.Stats()
	}
	if a, b := run(7), run(7); a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestFaultOverflowLosesBatch(t *testing.T) {
	spec, _ := fault.ParseSpec("ibs.overflow=1")
	e, _ := New(DefaultConfig(1), nil)
	e.SetFaultPlane(fault.New(spec, 1))
	count := 0
	e.SetAccumulator(func(s trace.Sample, pd *mem.PageDescriptor) { count++ })
	for i := 0; i < 5; i++ {
		e.ObserveRetire(memOutcome(), 1)
	}
	e.Flush()
	s := e.Stats()
	if count != 0 {
		t.Errorf("accumulator saw %d samples from an overflowed batch", count)
	}
	if s.FaultOverflows != 1 || s.FaultLost != 5 {
		t.Errorf("overflows/lost = %d/%d, want 1/5", s.FaultOverflows, s.FaultLost)
	}
	// The copy-out cost was paid before the loss was discovered.
	if s.OverheadNS < 5*DefaultConfig(1).DrainCostPerSample {
		t.Errorf("overflowed drain charged no copy-out cost")
	}
}

func TestQuarantineSticky(t *testing.T) {
	e, _ := New(DefaultConfig(1), nil)
	e.Quarantine()
	if !e.Quarantined() || e.Enabled() {
		t.Fatalf("Quarantine did not disable")
	}
	e.Enable() // HWPC gate reopening must not resurrect it
	if e.Enabled() {
		t.Errorf("Enable resurrected a quarantined engine")
	}
	if e.ObserveRetire(memOutcome(), 1) != 0 || e.Stats().TaggedOps != 0 {
		t.Errorf("quarantined engine still sampling")
	}
}

func TestZeroRatePlaneInert(t *testing.T) {
	run := func(p *fault.Plane) Stats {
		e, _ := New(DefaultConfig(3), nil)
		e.SetFaultPlane(p)
		for i := 0; i < 300; i++ {
			e.ObserveRetire(memOutcome(), 1)
		}
		e.Flush()
		return e.Stats()
	}
	if a, b := run(nil), run(fault.New(fault.Spec{}, 42)); a != b {
		t.Errorf("zero-rate plane perturbed the engine: %+v vs %+v", a, b)
	}
}
