package tlb

import (
	"testing"
	"testing/quick"

	"tieredmem/internal/mem"
)

func small() *TLB {
	return MustNew(Config{Entries: 8, Ways: 2}, Config{Entries: 32, Ways: 4})
}

func TestConfigValidate(t *testing.T) {
	good := Config{Entries: 64, Ways: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, bad := range []Config{
		{Entries: 0, Ways: 4},
		{Entries: 64, Ways: 0},
		{Entries: 65, Ways: 4},
		{Entries: 24, Ways: 4}, // 6 sets, not a power of two
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid config %+v accepted", bad)
		}
	}
}

// TestNonPowerOfTwoSetsPanics: a set count that is not a power of two
// is an error from New, so MustNew, for known-good configurations,
// panics on it.
func TestNonPowerOfTwoSetsPanics(t *testing.T) {
	six := Config{Entries: 24, Ways: 4}
	if _, err := New(six, Config{Entries: 32, Ways: 4}); err == nil {
		t.Errorf("New accepted 24 entries / 4 ways = 6 sets")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("24 entries / 4 ways = 6 sets accepted")
		}
	}()
	MustNew(six, Config{Entries: 32, Ways: 4})
}

func TestInsertLookup(t *testing.T) {
	tl := small()
	if _, lvl := tl.Lookup(5); lvl != HitNone {
		t.Fatalf("empty TLB hit")
	}
	tl.Insert(Entry{VPN: 5, PFN: 50, Writable: true})
	e, lvl := tl.Lookup(5)
	if lvl != HitL1 || e.PFN != 50 || !e.Writable {
		t.Fatalf("Lookup after Insert = (%+v, %v)", e, lvl)
	}
}

func TestL2PromotionOnL1Miss(t *testing.T) {
	tl := small()
	tl.Insert(Entry{VPN: 1, PFN: 10})
	// Evict vpn 1 from tiny L1 by filling its set (same set index:
	// stride by set count = 4).
	for i := mem.VPN(5); i < 14; i += 4 {
		tl.Insert(Entry{VPN: i, PFN: mem.PFN(i * 10)})
	}
	l1miss := tl.L1Stats().Misses
	if _, lvl := tl.Lookup(1); lvl != HitL2 {
		t.Fatalf("expected an L2 hit for vpn 1, got %v", lvl)
	}
	if tl.L1Stats().Misses != l1miss+1 {
		t.Errorf("L1 miss not counted on L2 promotion")
	}
	// Second lookup should now hit L1 (promoted).
	if _, lvl := tl.Lookup(1); lvl != HitL1 {
		t.Fatalf("post-promotion lookup level = %v, want L1", lvl)
	}
}

func TestLRUReplacement(t *testing.T) {
	tl := small() // L1: 4 sets x 2 ways
	// Same set: VPNs congruent mod 4.
	tl.Insert(Entry{VPN: 0, PFN: 1})
	tl.Insert(Entry{VPN: 4, PFN: 2})
	tl.Lookup(0) // make 0 MRU
	tl.Insert(Entry{VPN: 8, PFN: 3})
	// L2 has 8 sets; 0, 4, 8 map to sets 0, 4, 0: vpn 8 evicts vpn 0
	// or 4 in L1 (vpn 4 is LRU). Both still in L2 though; check L1
	// directly via stats after flushing L2.
	// Instead verify that 0 and 8 hit while 4 was the L1 victim:
	// lookups hit either way through L2, so compare L1 hit counts.
	h0 := tl.L1Stats().Hits
	tl.Lookup(0)
	if tl.L1Stats().Hits != h0+1 {
		t.Errorf("MRU entry 0 was evicted from L1; LRU policy broken")
	}
}

func TestMarkDirty(t *testing.T) {
	tl := small()
	tl.Insert(Entry{VPN: 3, PFN: 30, Writable: true, Dirty: false})
	tl.MarkDirty(3)
	e, lvl := tl.Lookup(3)
	if lvl == HitNone || !e.Dirty {
		t.Errorf("MarkDirty not visible: %+v", e)
	}
}

func TestDirtyFlagUpdateInPlace(t *testing.T) {
	tl := small()
	tl.Insert(Entry{VPN: 3, PFN: 30})
	e, _ := tl.Lookup(3)
	e.Dirty = true
	e2, _ := tl.Lookup(3)
	if e2 == nil || !e2.Dirty {
		t.Errorf("in-place Dirty update lost (pointer aliasing broken)")
	}
}

func TestFlushPage(t *testing.T) {
	tl := small()
	tl.Insert(Entry{VPN: 7, PFN: 70})
	tl.FlushPage(7)
	if _, lvl := tl.Lookup(7); lvl != HitNone {
		t.Errorf("entry survived FlushPage")
	}
	if tl.FlushedPages != 1 {
		t.Errorf("FlushedPages = %d, want 1", tl.FlushedPages)
	}
}

func TestFlushAll(t *testing.T) {
	tl := small()
	for i := mem.VPN(0); i < 20; i++ {
		tl.Insert(Entry{VPN: i, PFN: mem.PFN(i)})
	}
	tl.FlushAll()
	for i := mem.VPN(0); i < 20; i++ {
		if _, lvl := tl.Lookup(i); lvl != HitNone {
			t.Fatalf("vpn %d survived FlushAll", i)
		}
	}
	if tl.Flushes != 1 {
		t.Errorf("Flushes = %d, want 1", tl.Flushes)
	}
}

func TestMissesCountsSTLBMisses(t *testing.T) {
	tl := small()
	tl.Lookup(1)
	tl.Lookup(2)
	tl.Insert(Entry{VPN: 1, PFN: 1})
	tl.Lookup(1)
	if tl.Misses() != 2 {
		t.Errorf("Misses = %d, want 2", tl.Misses())
	}
}

// TestInsertThenLookupAlwaysHits is a property: any freshly inserted
// translation must be found immediately.
func TestInsertThenLookupAlwaysHits(t *testing.T) {
	tl := MustNew(DefaultL1, DefaultL2)
	f := func(raw uint32) bool {
		vpn := mem.VPN(raw)
		tl.Insert(Entry{VPN: vpn, PFN: mem.PFN(raw) + 1})
		e, lvl := tl.Lookup(vpn)
		return lvl != HitNone && e.PFN == mem.PFN(raw)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
