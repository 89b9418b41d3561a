package mem

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"tieredmem/internal/fault"
	"tieredmem/internal/order"
)

func TestAddressMath(t *testing.T) {
	if PFNOf(0x12345) != 0x12 {
		t.Errorf("PFNOf(0x12345) = %#x, want 0x12", PFNOf(0x12345))
	}
	if PFN(0x12).PAddrOf() != 0x12000 {
		t.Errorf("PAddrOf = %#x, want 0x12000", PFN(0x12).PAddrOf())
	}
	if VPNOf(0xabcdef) != 0xabc {
		t.Errorf("VPNOf(0xabcdef) = %#x, want 0xabc", VPNOf(0xabcdef))
	}
	if VPN(0xabc).VAddrOf() != 0xabc000 {
		t.Errorf("VAddrOf = %#x, want 0xabc000", VPN(0xabc).VAddrOf())
	}
}

func TestAddressRoundtrip(t *testing.T) {
	f := func(addr uint64) bool {
		return PFNOf(addr).PAddrOf() == addr&^uint64(PageMask) &&
			VPNOf(addr).VAddrOf() == addr&^uint64(PageMask)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTierIDString(t *testing.T) {
	if FastTier.String() != "fast" || SlowTier.String() != "slow" {
		t.Errorf("tier names: %v, %v", FastTier, SlowTier)
	}
	if TierID(5).String() != "tier(5)" {
		t.Errorf("TierID(5) = %v", TierID(5))
	}
}

// TestPageDescriptorResetEpoch: the epoch fold clears a frame's
// evidence and, on a machine that tracks totals, adds its ground truth
// to the frame's all-time total.
func TestPageDescriptorResetEpoch(t *testing.T) {
	pm := newTestMem(t, 2, 2)
	pfn, _ := pm.Alloc(FastTier, 1, 0)
	pd := pm.Page(pfn)
	pd.Epoch = Evidence{Abit: 3, Trace: 5, Dev: 4, True: 7}
	pm.ResetEpoch(pfn)
	if pd.Epoch != (Evidence{}) || pm.TrueTotal(pfn) != 0 {
		t.Errorf("untracked fold: epoch %+v, total %d; want zero, 0", pd.Epoch, pm.TrueTotal(pfn))
	}
	pm.TrackTrueTotals()
	pm.trueTotal[pfn] = 30
	pd.Epoch = Evidence{Abit: 3, Trace: 5, Dev: 4, True: 7}
	pm.ResetEpoch(pfn)
	if pd.Epoch != (Evidence{}) {
		t.Errorf("epoch counters not cleared: %+v", pd)
	}
	if got := pm.TrueTotal(pfn); got != 37 {
		t.Errorf("truth not accumulated: total %d, want 37", got)
	}
}

func TestEvidenceAdd(t *testing.T) {
	e := Evidence{Abit: 1, Trace: 2, Dev: 4, True: 5}
	e.Add(Evidence{Abit: 10, Trace: 20, Dev: 40, True: 50})
	if want := (Evidence{Abit: 11, Trace: 22, Dev: 44, True: 55}); e != want {
		t.Errorf("Add = %+v, want %+v", e, want)
	}
}

// TestPageDescriptorSize pins the per-frame metadata budget: the
// descriptor array is sized to the whole machine, so every byte here
// is paid once per simulated frame.
func TestPageDescriptorSize(t *testing.T) {
	if got := unsafe.Sizeof(PageDescriptor{}); got > 32 {
		t.Errorf("PageDescriptor is %d bytes, want at most 32", got)
	}
}

// heapBytes returns the bytes of heap f allocates, from the
// process-wide allocation total.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPerFrameBytes holds everything NewPhysMem allocates per frame to
// 33 bytes: the 32-byte descriptor and the flags byte. The all-time
// ground-truth column costs 8 bytes more per frame, and only on a
// machine with an emulator attached (TrackTrueTotals). Fixed costs
// (the tier table, rounding to whole heap pages) spread over the
// frames; the slack below covers them, not a byte per frame.
func TestPerFrameBytes(t *testing.T) {
	const frames = 87_124 // the largest benchmark machine's frame count
	const slack = 16 << 10
	var pm *PhysMem
	got := heapBytes(func() {
		var err error
		if pm, err = NewPhysMem(DefaultTiers(5_125, frames-5_125)); err != nil {
			t.Fatal(err)
		}
	})
	if budget := uint64(33*frames + slack); got > budget {
		t.Errorf("NewPhysMem of %d frames allocated %d bytes (%.2f per frame), want at most %d: 33 per frame",
			frames, got, float64(got)/frames, budget)
	}
	got = heapBytes(pm.TrackTrueTotals)
	if budget := uint64(8*frames + slack); got > budget {
		t.Errorf("TrackTrueTotals on %d frames allocated %d bytes (%.2f per frame), want at most %d: 8 per frame",
			frames, got, float64(got)/frames, budget)
	}
}

// TestTierOfMatchesTierRange holds TierOf, which compares a PFN with
// the tier bases, to the tier whose TierRange holds the PFN, on 2-, 3-
// and 4-tier chains.
func TestTierOfMatchesTierRange(t *testing.T) {
	for _, text := range []string{
		"dram:3/nvm:5",
		"dram:4/cxl:1/nvm:7",
		"dram:2/cxl:3/nvm:1/ssd:6",
	} {
		chain, err := ParseTierChain(text)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := NewPhysMem(chain)
		if err != nil {
			t.Fatal(err)
		}
		for pfn := PFN(0); int(pfn) < pm.TotalFrames(); pfn++ {
			got := pm.TierOf(pfn)
			if lo, hi := pm.TierRange(got); pfn < lo || pfn >= hi {
				t.Errorf("%s: TierOf(%d) = %d, whose range is [%d, %d)", text, pfn, got, lo, hi)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: TierOf(%d) past the last frame did not panic", text, pm.TotalFrames())
				}
			}()
			pm.TierOf(PFN(pm.TotalFrames()))
		}()
	}
}

// TestNewPhysMemRejectsTooManyFrames: ShadowLink stores a PFN in 32
// bits, so a machine of 2^32 frames is refused before any descriptor
// is allocated.
func TestNewPhysMemRejectsTooManyFrames(t *testing.T) {
	_, err := NewPhysMem(DefaultTiers(1<<31, 1<<31))
	if !errors.Is(err, ErrTooManyFrames) {
		t.Errorf("NewPhysMem of 2^32 frames: err = %v, want ErrTooManyFrames", err)
	}
}

// TestAllocRejectsPIDOutsideInt32: a descriptor stores its owner in 32
// bits, so every allocator entry point refuses a wider PID and claims
// no frame.
func TestAllocRejectsPIDOutsideInt32(t *testing.T) {
	pm := newTestMem(t, 2*HugePages, HugePages)
	for _, pid := range []int{1 << 31, -1<<31 - 1} {
		if _, err := pm.Alloc(FastTier, pid, 0); !errors.Is(err, ErrPIDRange) {
			t.Errorf("Alloc pid %d: err = %v, want ErrPIDRange", pid, err)
		}
		if _, err := pm.AllocIn(FastTier, pid, 0); !errors.Is(err, ErrPIDRange) {
			t.Errorf("AllocIn pid %d: err = %v, want ErrPIDRange", pid, err)
		}
		if _, err := pm.AllocHuge(FastTier, pid, 0); !errors.Is(err, ErrPIDRange) {
			t.Errorf("AllocHuge pid %d: err = %v, want ErrPIDRange", pid, err)
		}
	}
	if pm.UsedFrames(FastTier)+pm.UsedFrames(SlowTier) != 0 {
		t.Errorf("a rejected allocation claimed a frame")
	}
	pfn, err := pm.Alloc(FastTier, 1<<31-1, 0)
	if err != nil {
		t.Fatalf("Alloc at the largest int32 pid: %v", err)
	}
	if got := pm.Page(pfn).PID; got != 1<<31-1 {
		t.Errorf("descriptor PID = %d, want %d", got, 1<<31-1)
	}
}

func TestTierSpecValidate(t *testing.T) {
	good := TierSpec{Name: "x", Frames: 1, ReadLatency: 1, WriteLatency: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for _, bad := range []TierSpec{
		{Name: "x", Frames: 0, ReadLatency: 1, WriteLatency: 1},
		{Name: "x", Frames: 1, ReadLatency: 0, WriteLatency: 1},
		{Name: "x", Frames: 1, ReadLatency: 1, WriteLatency: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid spec %+v accepted", bad)
		}
	}
}

func newTestMem(t *testing.T, fast, slow int) *PhysMem {
	t.Helper()
	pm, err := NewPhysMem(DefaultTiers(fast, slow))
	if err != nil {
		t.Fatalf("NewPhysMem: %v", err)
	}
	return pm
}

func TestAllocBasics(t *testing.T) {
	pm := newTestMem(t, 4, 4)
	if pm.TotalFrames() != 8 {
		t.Fatalf("TotalFrames = %d, want 8", pm.TotalFrames())
	}
	pfn, err := pm.Alloc(FastTier, 1, 100)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	pd := pm.Page(pfn)
	if !pm.Allocated(pfn) || pd.PID != 1 || pd.VPage != 100 || pm.TierOf(pfn) != FastTier {
		t.Errorf("descriptor not initialized: %+v", pd)
	}
	if pm.UsedFrames(FastTier) != 1 || pm.FreeFrames(FastTier) != 3 {
		t.Errorf("used/free = %d/%d, want 1/3", pm.UsedFrames(FastTier), pm.FreeFrames(FastTier))
	}
}

func TestAllocSpillsToSlowTier(t *testing.T) {
	pm := newTestMem(t, 2, 4)
	for i := 0; i < 2; i++ {
		if _, err := pm.Alloc(FastTier, 1, VPN(i)); err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
	}
	pfn, err := pm.Alloc(FastTier, 1, 99)
	if err != nil {
		t.Fatalf("spill Alloc: %v", err)
	}
	if pm.TierOf(pfn) != SlowTier {
		t.Errorf("third frame in tier %v, want spill to slow", pm.TierOf(pfn))
	}
}

func TestAllocOOM(t *testing.T) {
	pm := newTestMem(t, 1, 1)
	pm.Alloc(FastTier, 1, 0)
	pm.Alloc(FastTier, 1, 1)
	if _, err := pm.Alloc(FastTier, 1, 2); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestAllocInNoSpill(t *testing.T) {
	pm := newTestMem(t, 1, 4)
	pm.AllocIn(FastTier, 1, 0)
	_, err := pm.AllocIn(FastTier, 1, 1)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("AllocIn spilled or wrong error: %v", err)
	}
	// The typed sentinel is what the mover's retry logic branches on.
	if !errors.Is(err, ErrTierFull) {
		t.Errorf("AllocIn error %v does not wrap ErrTierFull", err)
	}
	if pm.UsedFrames(SlowTier) != 0 {
		t.Errorf("AllocIn leaked into slow tier")
	}
}

func TestAllocInFaultInjection(t *testing.T) {
	pm := newTestMem(t, 8, 8)
	spec, err := fault.ParseSpec("mem.enomem=1")
	if err != nil {
		t.Fatal(err)
	}
	pm.SetFaultPlane(fault.New(spec, 42))
	_, err = pm.AllocIn(FastTier, 1, 0)
	if !errors.Is(err, ErrTierFull) {
		t.Fatalf("injected AllocIn error = %v, want ErrTierFull", err)
	}
	// Injected pressure is transient and must not wrap the permanent
	// out-of-frames condition: frames were free.
	if errors.Is(err, ErrOutOfMemory) {
		t.Errorf("injected pressure wraps ErrOutOfMemory: %v", err)
	}
	if pm.UsedFrames(FastTier) != 0 {
		t.Errorf("failed AllocIn claimed a frame")
	}
	// Demand allocation is never injected.
	if _, err := pm.Alloc(FastTier, 1, 0); err != nil {
		t.Errorf("Alloc under fault plane: %v", err)
	}
	// A zero-rate plane injects nothing.
	pm2 := newTestMem(t, 1, 1)
	pm2.SetFaultPlane(fault.New(fault.Spec{}, 42))
	if _, err := pm2.AllocIn(FastTier, 1, 0); err != nil {
		t.Errorf("zero-rate AllocIn: %v", err)
	}
}

func TestFreeAndReuse(t *testing.T) {
	pm := newTestMem(t, 2, 2)
	pfn, _ := pm.Alloc(FastTier, 1, 0)
	pm.Free(pfn)
	if pm.Allocated(pfn) {
		t.Errorf("freed frame still allocated")
	}
	if pm.FreeFrames(FastTier) != 2 {
		t.Errorf("free count = %d, want 2", pm.FreeFrames(FastTier))
	}
	// The frame must be allocatable again.
	seen := map[PFN]bool{}
	for i := 0; i < 2; i++ {
		p, err := pm.Alloc(FastTier, 1, VPN(i))
		if err != nil {
			t.Fatalf("re-alloc: %v", err)
		}
		seen[p] = true
	}
	if !seen[pfn] {
		t.Errorf("freed frame %d never reused", pfn)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	pm := newTestMem(t, 2, 2)
	pfn, _ := pm.Alloc(FastTier, 1, 0)
	pm.Free(pfn)
	defer func() {
		if recover() == nil {
			t.Errorf("double free did not panic")
		}
	}()
	pm.Free(pfn)
}

func TestAllocResetsProfilingState(t *testing.T) {
	pm := newTestMem(t, 2, 2)
	pm.TrackTrueTotals()
	pfn, _ := pm.Alloc(FastTier, 1, 0)
	pd := pm.Page(pfn)
	pd.Epoch = Evidence{Abit: 1, Trace: 2, Dev: 4, True: 5}
	pm.trueTotal[pfn] = 6
	pm.SetNonMigratable(pfn, true)
	pm.Free(pfn)
	pfn2, _ := pm.Alloc(FastTier, 2, 7)
	if pfn2 != pfn {
		// Next-fit may pick the other frame first; force reuse.
		pm.Free(pfn2)
		pfn2, _ = pm.Alloc(FastTier, 2, 7)
	}
	pd2 := pm.Page(pfn2)
	if pd2.Epoch != (Evidence{}) || pm.TrueTotal(pfn2) != 0 || pm.Flags(pfn2) != FlagAllocated {
		t.Errorf("profiling state leaked across allocations: %+v, total %d, flags %#x", pd2, pm.TrueTotal(pfn2), pm.Flags(pfn2))
	}
}

func TestAllocHugeAlignedContiguous(t *testing.T) {
	pm := newTestMem(t, 3*HugePages, HugePages)
	base, err := pm.AllocHuge(FastTier, 1, 0)
	if err != nil {
		t.Fatalf("AllocHuge: %v", err)
	}
	if uint64(base)%HugePages != 0 {
		t.Errorf("base PFN %d not 2MiB aligned", base)
	}
	for i := 0; i < HugePages; i++ {
		pd := pm.Page(base + PFN(i))
		if !pm.Allocated(base+PFN(i)) || pd.PID != 1 || pd.VPage != VPN(i) {
			t.Fatalf("frame %d not claimed correctly: %+v", i, pd)
		}
	}
	if pm.UsedFrames(FastTier) != HugePages {
		t.Errorf("used = %d, want %d", pm.UsedFrames(FastTier), HugePages)
	}
}

func TestAllocHugeMisalignedVPN(t *testing.T) {
	pm := newTestMem(t, 2*HugePages, HugePages)
	if _, err := pm.AllocHuge(FastTier, 1, 3); err == nil {
		t.Errorf("misaligned huge vpn accepted")
	}
}

func TestAllocHugeFragmentationFallback(t *testing.T) {
	pm := newTestMem(t, 2*HugePages, 0+HugePages)
	// Fragment the fast tier: one 4 KiB page in each aligned chunk.
	// Base pages allocate bottom-up, so poke holes manually by
	// allocating until each chunk has at least one used frame.
	for i := 0; i < 2*HugePages; i += HugePages {
		if _, err := pm.Alloc(FastTier, 1, VPN(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Both fast chunks hold a base page now? Base pages allocate
	// next-fit from the bottom, so only the first chunk is dirty;
	// dirty the second chunk's first frame explicitly via many allocs.
	for i := 0; pm.FreeFrames(FastTier) > HugePages-2 && i < HugePages; i++ {
		if _, err := pm.Alloc(FastTier, 1, VPN(2000+i)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := pm.AllocHuge(FastTier, 1, 0)
	// Either it found a clean chunk (fine) or it reports
	// ErrNoContiguous / spills to slow: never a different error.
	if err != nil && !errors.Is(err, ErrNoContiguous) && !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestAllocHugeSpillsToSlow(t *testing.T) {
	pm := newTestMem(t, HugePages/2, 2*HugePages) // fast tier too small
	base, err := pm.AllocHuge(FastTier, 1, 0)
	if err != nil {
		t.Fatalf("AllocHuge: %v", err)
	}
	if pm.TierOf(base) != SlowTier {
		t.Errorf("huge allocation in tier %v, want spill to slow", pm.TierOf(base))
	}
}

func TestFreeHuge(t *testing.T) {
	pm := newTestMem(t, 2*HugePages, HugePages)
	base, err := pm.AllocHuge(FastTier, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pm.FreeHuge(base)
	if pm.UsedFrames(FastTier) != 0 {
		t.Errorf("used = %d after FreeHuge, want 0", pm.UsedFrames(FastTier))
	}
}

func TestHugeAndBaseCoexist(t *testing.T) {
	pm := newTestMem(t, 4*HugePages, HugePages)
	var basePages []PFN
	for i := 0; i < 100; i++ {
		p, err := pm.Alloc(FastTier, 1, VPN(i))
		if err != nil {
			t.Fatal(err)
		}
		basePages = append(basePages, p)
	}
	hbase, err := pm.AllocHuge(FastTier, 2, 0)
	if err != nil {
		t.Fatalf("AllocHuge with base pages present: %v", err)
	}
	for _, bp := range basePages {
		if bp >= hbase && bp < hbase+HugePages {
			t.Fatalf("huge run overlaps base page %d", bp)
		}
	}
}

func TestForEachAllocated(t *testing.T) {
	pm := newTestMem(t, 4, 4)
	pm.Alloc(FastTier, 1, 0)
	pm.Alloc(SlowTier, 1, 1)
	count := 0
	var last PFN
	first := true
	pm.ForEachAllocated(func(pfn PFN, pd *PageDescriptor) {
		count++
		if pd != pm.Page(pfn) {
			t.Errorf("PFN %d passed with another frame's descriptor", pfn)
		}
		if !first && pfn <= last {
			t.Errorf("not ascending: %d after %d", pfn, last)
		}
		last, first = pfn, false
	})
	if count != 2 {
		t.Errorf("visited %d frames, want 2", count)
	}
}

func TestResetEpochAll(t *testing.T) {
	pm := newTestMem(t, 4, 4)
	pm.TrackTrueTotals()
	pfn, _ := pm.Alloc(FastTier, 1, 0)
	pd := pm.Page(pfn)
	pd.Epoch = Evidence{Abit: 5, True: 5}
	pm.ResetEpochAll()
	if pd.Epoch != (Evidence{}) || pm.TrueTotal(pfn) != 5 {
		t.Errorf("ResetEpochAll: %+v, total %d", pd, pm.TrueTotal(pfn))
	}
}

// TestAllocatorConservation is a property test: any interleaving of
// allocs and frees conserves frame counts and never double-assigns a
// frame.
func TestAllocatorConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		pm, err := NewPhysMem(DefaultTiers(32, 32))
		if err != nil {
			return false
		}
		live := map[PFN]bool{}
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				pfn := order.SortedKeys(live)[0]
				pm.Free(pfn)
				delete(live, pfn)
				continue
			}
			pfn, err := pm.Alloc(FastTier, 1, VPN(op))
			if err != nil {
				if !errors.Is(err, ErrOutOfMemory) {
					return false
				}
				continue
			}
			if live[pfn] {
				return false // double assignment
			}
			live[pfn] = true
		}
		used := pm.UsedFrames(FastTier) + pm.UsedFrames(SlowTier)
		free := pm.FreeFrames(FastTier) + pm.FreeFrames(SlowTier)
		return used == len(live) && used+free == pm.TotalFrames()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
