package core

import (
	"testing"

	"tieredmem/internal/mem"
	"tieredmem/internal/testalloc"
	"tieredmem/internal/trace"
)

func TestSumEpochsZeroEpochs(t *testing.T) {
	if got := SumEpochs(nil); len(got.Pages) != 0 {
		t.Errorf("SumEpochs(nil) produced %d pages", len(got.Pages))
	}
	if got := SumEpochs([]EpochStats{{}, {}}); len(got.Pages) != 0 {
		t.Errorf("SumEpochs of empty epochs produced %d pages", len(got.Pages))
	}
}

func TestSumEpochsDuplicateKeysAndTierChange(t *testing.T) {
	epochs := []EpochStats{
		{Pages: []PageStat{
			{Key: PageKey{1, 1}, Tier: mem.FastTier, Evidence: mem.Evidence{Abit: 1, Trace: 2, Dev: 1, True: 3}},
			// Duplicate key inside one epoch (crafted harvest): must
			// still accumulate, not clobber.
			{Key: PageKey{1, 1}, Tier: mem.FastTier, Evidence: mem.Evidence{Abit: 1}},
			{Key: PageKey{2, 7}, Tier: mem.SlowTier, Evidence: mem.Evidence{Trace: 5}},
		}},
		{Pages: []PageStat{
			// Same page, now demoted: counters add, latest tier wins.
			{Key: PageKey{1, 1}, Tier: mem.SlowTier, Evidence: mem.Evidence{Abit: 3, True: 1}},
		}},
	}
	got := SumEpochs(epochs)
	if len(got.Pages) != 2 {
		t.Fatalf("merged page count = %d, want 2", len(got.Pages))
	}
	// Canonical (PID, VPN) order.
	if got.Pages[0].Key != (PageKey{1, 1}) || got.Pages[1].Key != (PageKey{2, 7}) {
		t.Fatalf("merged order not canonical: %v, %v", got.Pages[0].Key, got.Pages[1].Key)
	}
	p := got.Pages[0]
	if p.Abit != 5 || p.Trace != 2 || p.Dev != 1 || p.True != 4 {
		t.Errorf("counters not summed: %+v", p)
	}
	if p.Tier != mem.SlowTier {
		t.Errorf("tier = %d, want latest observation (slow)", p.Tier)
	}
}

// TestAttachTruthAllMissed: a profiler that saw nothing still gets the
// full ground-truth denominator, appended in ascending-PFN order.
func TestAttachTruthAllMissed(t *testing.T) {
	m := testMachine(t, 64)
	for i := uint64(0); i < 6; i++ {
		if _, err := m.Execute(trace.Ref{PID: 1, VAddr: i * 4096, Kind: trace.Load}); err != nil {
			t.Fatal(err)
		}
	}
	ep := EpochStats{Epoch: 3}
	AttachTruth(m.Phys, &ep)
	if len(ep.Pages) != 6 {
		t.Fatalf("appended %d missed pages, want 6", len(ep.Pages))
	}
	for i, ps := range ep.Pages {
		if ps.True == 0 {
			t.Errorf("missed page %d has zero truth", i)
		}
		if ps.Abit != 0 || ps.Trace != 0 {
			t.Errorf("missed page %d acquired profiler evidence: %+v", i, ps)
		}
		if i > 0 && !PageKeyLess(ep.Pages[i-1].Key, ps.Key) {
			t.Errorf("missed pages not in ascending order at %d: %v then %v",
				i, ep.Pages[i-1].Key, ps.Key)
		}
	}
}

func TestRankedPagesExcludesZeroRankPerMethod(t *testing.T) {
	stats := EpochStats{Pages: []PageStat{
		{Key: PageKey{1, 1}, Evidence: mem.Evidence{Abit: 2}},           // abit-only
		{Key: PageKey{1, 2}, Evidence: mem.Evidence{Trace: 3}},          // trace-only
		{Key: PageKey{1, 3}, Evidence: mem.Evidence{Abit: 1, Trace: 1}}, // both
		{Key: PageKey{1, 4}, Evidence: mem.Evidence{True: 42}},          // neither: never ranked
	}}
	cases := []struct {
		m    Method
		want []PageKey
	}{
		{MethodAbit, []PageKey{{1, 1}, {1, 3}}},
		{MethodTrace, []PageKey{{1, 2}, {1, 3}}},
		{MethodCombined, []PageKey{{1, 1}, {1, 2}, {1, 3}}},
	}
	for _, c := range cases {
		got := RankedPages(stats, c.m)
		keys := make(map[PageKey]bool, len(got))
		for _, ps := range got {
			keys[ps.Key] = true
		}
		if len(got) != len(c.want) {
			t.Errorf("%v: ranked %d pages, want %d", c.m, len(got), len(c.want))
			continue
		}
		for _, k := range c.want {
			if !keys[k] {
				t.Errorf("%v: page %v missing from ranking", c.m, k)
			}
		}
	}
}

// TestHarvestEpochIntoZeroAllocs pins the steady-state contract the
// placement loop depends on: once the scratch harvest has grown to the
// working-set size, harvesting allocates nothing.
func TestHarvestEpochIntoZeroAllocs(t *testing.T) {
	m := testMachine(t, 64)
	p, err := New(smallConfig(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Register(1)
	for i := uint64(0); i < 16; i++ {
		if _, err := m.Execute(trace.Ref{PID: 1, VAddr: i * 4096, Kind: trace.Load}); err != nil {
			t.Fatal(err)
		}
	}
	var ep EpochStats
	p.HarvestEpochInto(&ep) // grow the scratch once
	// One run of 100 harvests, read as a total (TestAllocsPinsTakeOneRun).
	allocs := testalloc.Count(func() {
		for range 100 {
			// Refresh per-epoch evidence directly (the accelerator path is
			// exercised elsewhere; here only the harvest itself is timed).
			m.Phys.ForEachAllocated(func(_ mem.PFN, pd *mem.PageDescriptor) { pd.Epoch.Abit = 1 })
			p.HarvestEpochInto(&ep)
		}
	})
	if allocs != 0 {
		t.Errorf("100 steady-state HarvestEpochInto calls allocate %v times, want 0", allocs)
	}
	if len(ep.Pages) != 16 {
		t.Errorf("steady-state harvest saw %d pages, want 16", len(ep.Pages))
	}
}
