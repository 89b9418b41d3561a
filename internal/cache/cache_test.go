package cache

import (
	"testing"
	"testing/quick"

	"tieredmem/internal/order"
)

func tiny(t *testing.T, pf *Prefetcher) *Hierarchy {
	t.Helper()
	llc, err := NewSharedLLC(Config{SizeBytes: 16 << 10, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(
		Config{SizeBytes: 1 << 10, Ways: 2},
		Config{SizeBytes: 4 << 10, Ways: 4},
		llc, pf)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{SizeBytes: 32 << 10, Ways: 8}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, bad := range []Config{
		{SizeBytes: 0, Ways: 8},
		{SizeBytes: 32 << 10, Ways: 0},
		{SizeBytes: 3 << 10, Ways: 8},       // 6 sets, not a power of two
		{SizeBytes: 100 * 64, Ways: 7},      // lines not divisible
		{SizeBytes: 17 * 64 * 64, Ways: 17}, // more ways than the recency order holds
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid config %+v accepted", bad)
		}
	}
}

func TestHitLevelString(t *testing.T) {
	names := map[HitLevel]string{HitL1: "L1", HitL2: "L2", HitLLC: "LLC", MissAll: "mem"}
	for _, l := range order.SortedKeys(names) {
		if l.String() != names[l] {
			t.Errorf("%d.String() = %q, want %q", l, l.String(), names[l])
		}
	}
}

func TestMissThenHitLadder(t *testing.T) {
	h := tiny(t, nil)
	addr := uint64(0x10000)
	if r := h.Access(addr, 1, false); r.Level != MissAll {
		t.Fatalf("cold access level = %v, want mem", r.Level)
	}
	if r := h.Access(addr, 1, false); r.Level != HitL1 {
		t.Fatalf("warm access level = %v, want L1", r.Level)
	}
}

func TestInclusiveFill(t *testing.T) {
	h := tiny(t, nil)
	addr := uint64(0x20000)
	h.Access(addr, 1, false)
	// Evict from L1 by filling its set (L1: 8 sets; stride 8 lines =
	// 512 bytes).
	for i := uint64(1); i <= 2; i++ {
		h.Access(addr+i*512, 1, false)
	}
	if r := h.Access(addr, 1, false); r.Level != HitL2 && r.Level != HitL1 {
		t.Fatalf("level = %v after L1 pressure, want L2 (inclusive)", r.Level)
	}
}

func TestStoreMarksDirty(t *testing.T) {
	h := tiny(t, nil)
	h.Access(0x30000, 1, true)
	// No crash and the line is present; dirtiness is internal but the
	// second store must hit L1.
	if r := h.Access(0x30000, 1, true); r.Level != HitL1 {
		t.Errorf("store did not fill L1: %v", r.Level)
	}
}

func TestLRUWithinSet(t *testing.T) {
	h := tiny(t, nil)
	// L1: 1 KiB, 2 ways, 8 sets. Three lines in set 0:
	a, b, c := uint64(0), uint64(512), uint64(1024)
	h.Access(a, 1, false)
	h.Access(b, 1, false)
	h.Access(a, 1, false) // a is MRU
	h.Access(c, 1, false) // evicts b
	if r := h.Access(a, 1, false); r.Level != HitL1 {
		t.Errorf("MRU line evicted: %v", r.Level)
	}
}

func TestStats(t *testing.T) {
	h := tiny(t, nil)
	h.Access(0x40000, 1, false)
	h.Access(0x40000, 1, false)
	if h.L1Stats().Hits != 1 || h.L1Stats().Misses != 1 {
		t.Errorf("L1 stats = %+v", h.L1Stats())
	}
	if h.LLCStats().Misses != 1 {
		t.Errorf("LLC misses = %d, want 1", h.LLCStats().Misses)
	}
}

func TestPrefetcherDetectsStride(t *testing.T) {
	pf := NewPrefetcher(64, 2)
	ip := uint64(0x400100)
	var lines []uint64
	for i := uint64(0); i < 6; i++ {
		lines = pf.Train(ip, 100+i*2) // stride 2
	}
	if len(lines) != 2 {
		t.Fatalf("prefetch lines = %v, want 2 (degree)", lines)
	}
	if lines[0] != 112 || lines[1] != 114 {
		t.Errorf("prefetch targets = %v, want [112 114]", lines)
	}
}

func TestPrefetcherIgnoresRandom(t *testing.T) {
	pf := NewPrefetcher(64, 2)
	ip := uint64(0x400200)
	addrs := []uint64{5, 900, 13, 77777, 2, 4141}
	for _, a := range addrs {
		if got := pf.Train(ip, a); len(got) != 0 {
			t.Fatalf("random stream triggered prefetch of %v", got)
		}
	}
}

func TestPrefetcherPerIPIsolation(t *testing.T) {
	pf := NewPrefetcher(64, 1)
	// Two IPs (in distinct table slots) with different strides must
	// not pollute each other.
	for i := uint64(0); i < 6; i++ {
		pf.Train(0x400100, 100+i)
		pf.Train(0x400104, 5000+i*10)
	}
	l1 := append([]uint64(nil), pf.Train(0x400100, 106)...) // copy: Train reuses scratch
	l2 := pf.Train(0x400104, 5060)
	if len(l1) != 1 || l1[0] != 107 {
		t.Errorf("ip1 prefetch = %v, want [107]", l1)
	}
	if len(l2) != 1 || l2[0] != 5070 {
		t.Errorf("ip2 prefetch = %v, want [5070]", l2)
	}
}

func TestPrefetchHitReported(t *testing.T) {
	pf := NewPrefetcher(64, 2)
	h := tiny(t, pf)
	ip := uint64(0x400300)
	base := uint64(0x100000)
	// Sequential scan: after training, later lines should be staged
	// and demand accesses should report PrefetchHit.
	sawPrefetchHit := false
	for i := uint64(0); i < 64; i++ {
		r := h.Access(base+i*LineSize, ip, false)
		if r.PrefetchHit {
			sawPrefetchHit = true
			if r.Level == MissAll {
				t.Fatalf("prefetch hit cannot be a memory access")
			}
		}
	}
	if !sawPrefetchHit {
		t.Errorf("sequential scan never hit a prefetched line")
	}
	if pf.Issued == 0 {
		t.Errorf("no prefetches issued")
	}
}

func TestPrefetchDoesNotTouchL1(t *testing.T) {
	pf := NewPrefetcher(64, 1)
	h := tiny(t, pf)
	ip := uint64(0x400400)
	base := uint64(0x200000)
	for i := uint64(0); i < 4; i++ {
		h.Access(base+i*LineSize, ip, false)
	}
	// Line 4 should be prefetched into L2/LLC, not L1: a demand hit
	// lands at L2.
	r := h.Access(base+4*LineSize, ip, false)
	if r.PrefetchHit && r.Level == HitL1 {
		t.Errorf("prefetched line found in L1; prefetcher should stage into L2/LLC")
	}
}

func TestPrefetcherTableSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("non-power-of-two table accepted")
		}
	}()
	NewPrefetcher(100, 1)
}

// TestCacheNeverLies is a property: an access immediately repeated
// must hit L1 (nothing can evict between consecutive accesses to the
// same line).
func TestCacheNeverLies(t *testing.T) {
	h := tiny(t, nil)
	f := func(raw uint32, store bool) bool {
		addr := uint64(raw) << 3
		h.Access(addr, 1, store)
		return h.Access(addr, 1, false).Level == HitL1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
