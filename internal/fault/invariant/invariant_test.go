package invariant

import (
	"strings"
	"testing"

	"tieredmem/internal/mem"
	"tieredmem/internal/pagetable"
	"tieredmem/internal/policy"
)

// buildMapped returns a small machine state: n pages mapped for pid
// 100, half in each tier.
func buildMapped(t *testing.T, n int) (*mem.PhysMem, map[int]*pagetable.Table) {
	t.Helper()
	phys, err := mem.NewPhysMem(mem.DefaultTiers(n, n))
	if err != nil {
		t.Fatal(err)
	}
	table := pagetable.New(100)
	for i := 0; i < n; i++ {
		tier := mem.FastTier
		if i%2 == 1 {
			tier = mem.SlowTier
		}
		pfn, err := phys.AllocIn(tier, 100, mem.VPN(i))
		if err != nil {
			t.Fatal(err)
		}
		table.Map(mem.VPN(i), pfn, true)
	}
	return phys, map[int]*pagetable.Table{100: table}
}

func TestCheckCleanState(t *testing.T) {
	phys, tables := buildMapped(t, 64)
	c := New()
	if err := c.Check(phys, tables, nil); err != nil {
		t.Fatalf("clean state violates invariants: %v", err)
	}
	// Re-check with the same scratch: the epoch-stamp reuse must not
	// report stale ownership.
	if err := c.Check(phys, tables, nil); err != nil {
		t.Fatalf("second pass violates invariants: %v", err)
	}
}

func TestCheckCleanHugeState(t *testing.T) {
	phys, err := mem.NewPhysMem(mem.DefaultTiers(2*mem.HugePages, 2*mem.HugePages))
	if err != nil {
		t.Fatal(err)
	}
	table := pagetable.New(7)
	pfn, err := phys.AllocHuge(mem.FastTier, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	table.MapHuge(0, pfn, true)
	c := New()
	if err := c.Check(phys, map[int]*pagetable.Table{7: table}, nil); err != nil {
		t.Fatalf("huge mapping violates invariants: %v", err)
	}
}

// wantViolation asserts Check fails and the error names the rule.
func wantViolation(t *testing.T, err error, rule string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corrupted state passed the checker (want %s)", rule)
	}
	if !strings.Contains(err.Error(), rule) {
		t.Fatalf("violation %q missing from error: %v", rule, err)
	}
}

func TestCheckCatchesDanglingMapping(t *testing.T) {
	phys, tables := buildMapped(t, 16)
	pfn, _ := tables[100].Frame(4)
	phys.Free(pfn) // frame freed out from under a live mapping
	wantViolation(t, New().Check(phys, tables, nil), "dangling-mapping")
}

func TestCheckCatchesLeakedFrame(t *testing.T) {
	phys, tables := buildMapped(t, 16)
	if _, err := phys.AllocIn(mem.FastTier, 100, 999); err != nil {
		t.Fatal(err)
	} // allocated, never mapped: a lost page
	wantViolation(t, New().Check(phys, tables, nil), "leaked-frame")
}

func TestCheckCatchesDuplicateFrame(t *testing.T) {
	phys, tables := buildMapped(t, 16)
	pfn, _ := tables[100].Frame(2)
	other, _ := tables[100].Frame(3)
	tables[100].Remap(3, pfn) // vpn 2 and 3 now share a frame...
	phys.Free(other)          // ...and 3's old frame leaks-free cleanly
	wantViolation(t, New().Check(phys, tables, nil), "duplicate-frame")
}

func TestCheckCleanThreeTierChain(t *testing.T) {
	chain, err := mem.ParseTierChain("dram:8/cxl:8/nvm:16")
	if err != nil {
		t.Fatal(err)
	}
	phys, err := mem.NewPhysMem(chain)
	if err != nil {
		t.Fatal(err)
	}
	table := pagetable.New(9)
	for i := 0; i < 12; i++ {
		pfn, err := phys.AllocIn(mem.TierID(i%3), 9, mem.VPN(i))
		if err != nil {
			t.Fatal(err)
		}
		table.Map(mem.VPN(i), pfn, true)
	}
	if err := New().Check(phys, map[int]*pagetable.Table{9: table}, nil); err != nil {
		t.Fatalf("clean 3-tier state violates invariants: %v", err)
	}
}

func TestCheckCatchesDescriptorMismatch(t *testing.T) {
	phys, tables := buildMapped(t, 16)
	pfn, _ := tables[100].Frame(5)
	phys.Page(pfn).VPage = 555 // descriptor back-pointer corrupted
	wantViolation(t, New().Check(phys, tables, nil), "descriptor-mismatch")
}

func TestCheckCatchesMoverMiscount(t *testing.T) {
	phys, tables := buildMapped(t, 8)
	mv := &policy.Mover{Failed: 3, FailedPinned: 1} // 3 != 1
	wantViolation(t, New().Check(phys, tables, mv), "mover-accounting")
}

func TestCheckMoverCleanCounters(t *testing.T) {
	phys, tables := buildMapped(t, 8)
	mv := &policy.Mover{
		Failed: 4, FailedCapacity: 1, FailedPinned: 2, FailedSplit: 1,
		Retried: 3, RetrySucceeded: 2, RetryQueueCap: 8,
	}
	if err := New().Check(phys, tables, mv); err != nil {
		t.Fatalf("consistent mover counters flagged: %v", err)
	}
}
