package pagetable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tieredmem/internal/mem"
)

func TestPTEBits(t *testing.T) {
	p := NewPTE(0x123, true)
	if !p.Present() || !p.Writable() || p.Accessed() || p.Dirty() || p.Huge() || p.Poisoned() {
		t.Errorf("fresh PTE bits wrong: %#x", uint64(p))
	}
	if p.PFN() != 0x123 {
		t.Errorf("PFN = %#x, want 0x123", p.PFN())
	}
	ro := NewPTE(1, false)
	if ro.Writable() {
		t.Errorf("read-only PTE writable")
	}
}

func TestPTEPFNRoundtrip(t *testing.T) {
	f := func(raw uint64) bool {
		pfn := mem.PFN(raw & (1<<39 - 1)) // PFN field width
		return NewPTE(pfn, true).PFN() == pfn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapLookupUnmap(t *testing.T) {
	tb := New(1)
	tb.Map(100, 7, true)
	pte, huge, ok := tb.Lookup(100)
	if !ok || huge || pte.PFN() != 7 {
		t.Fatalf("Lookup = (%#x, %v, %v)", uint64(pte), huge, ok)
	}
	if tb.Mapped() != 1 || tb.MappedPages() != 1 {
		t.Errorf("Mapped = %d/%d, want 1/1", tb.Mapped(), tb.MappedPages())
	}
	if !tb.Unmap(100) {
		t.Fatalf("Unmap failed")
	}
	if _, _, ok := tb.Lookup(100); ok {
		t.Errorf("page still mapped after Unmap")
	}
	if tb.Unmap(100) {
		t.Errorf("second Unmap reported success")
	}
}

func TestLookupUnmappedNeighbors(t *testing.T) {
	tb := New(1)
	tb.Map(512, 1, true)
	for _, vpn := range []mem.VPN{0, 511, 513, 1 << 20} {
		if _, _, ok := tb.Lookup(vpn); ok {
			t.Errorf("vpn %d unexpectedly mapped", vpn)
		}
	}
}

func TestMapReplaces(t *testing.T) {
	tb := New(1)
	tb.Map(5, 1, true)
	tb.Map(5, 2, true)
	pte, _, _ := tb.Lookup(5)
	if pte.PFN() != 2 {
		t.Errorf("PFN = %d after remap-by-Map, want 2", pte.PFN())
	}
	if tb.Mapped() != 1 {
		t.Errorf("Mapped = %d, want 1", tb.Mapped())
	}
}

func TestAccessedDirtyBitsViaPtr(t *testing.T) {
	tb := New(1)
	tb.Map(9, 3, true)
	p, huge := tb.Resolve(9)
	if p == nil || huge {
		t.Fatalf("Resolve failed")
	}
	*p |= BitAccessed | BitDirty
	pte, _, _ := tb.Lookup(9)
	if !pte.Accessed() || !pte.Dirty() {
		t.Errorf("A/D not visible through Lookup: %#x", uint64(pte))
	}
}

func TestRemapClearsADPreservesWrite(t *testing.T) {
	tb := New(1)
	tb.Map(9, 3, true)
	p, _ := tb.Resolve(9)
	*p |= BitAccessed | BitDirty
	v := tb.Version()
	if !tb.Remap(9, 8) {
		t.Fatalf("Remap failed")
	}
	pte, _, _ := tb.Lookup(9)
	if pte.PFN() != 8 || pte.Accessed() || pte.Dirty() || !pte.Writable() {
		t.Errorf("Remap result wrong: %#x", uint64(pte))
	}
	if tb.Version() == v {
		t.Errorf("Version not bumped by Remap")
	}
}

func TestPoison(t *testing.T) {
	tb := New(1)
	tb.Map(4, 2, true)
	if !tb.SetPoison(4, true) {
		t.Fatalf("SetPoison failed")
	}
	pte, _, _ := tb.Lookup(4)
	if !pte.Poisoned() {
		t.Errorf("poison bit not set")
	}
	tb.SetPoison(4, false)
	pte, _, _ = tb.Lookup(4)
	if pte.Poisoned() {
		t.Errorf("poison bit not cleared")
	}
	if tb.SetPoison(9999, true) {
		t.Errorf("SetPoison on unmapped page reported success")
	}
}

func TestMapHugeAndResolve(t *testing.T) {
	tb := New(1)
	tb.MapHuge(1024, 2048, true)
	if tb.HugeLeaves() != 1 || tb.Mapped() != 1 {
		t.Errorf("HugeLeaves/Mapped = %d/%d", tb.HugeLeaves(), tb.Mapped())
	}
	if tb.MappedPages() != mem.HugePages {
		t.Errorf("MappedPages = %d, want %d", tb.MappedPages(), mem.HugePages)
	}
	// Every VPN in the chunk resolves to the same leaf.
	for _, off := range []uint64{0, 1, 255, 511} {
		p, huge := tb.Resolve(mem.VPN(1024 + off))
		if p == nil || !huge {
			t.Fatalf("Resolve(%d) = (%v, %v)", 1024+off, p, huge)
		}
		pfn, ok := tb.Frame(mem.VPN(1024 + off))
		if !ok || pfn != mem.PFN(2048+off) {
			t.Errorf("Frame(+%d) = %d, want %d", off, pfn, 2048+off)
		}
	}
	// PTEPtr must refuse huge leaves (4 KiB-only accessor).
	if tb.PTEPtr(1024) != nil {
		t.Errorf("PTEPtr returned a huge leaf")
	}
}

func TestMapHugeAlignmentPanics(t *testing.T) {
	tb := New(1)
	for _, c := range []struct{ vpn, pfn uint64 }{{3, 512}, {512, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MapHuge(%d, %d) did not panic", c.vpn, c.pfn)
				}
			}()
			tb.MapHuge(mem.VPN(c.vpn), mem.PFN(c.pfn), true)
		}()
	}
}

func TestMapInsideHugePanics(t *testing.T) {
	tb := New(1)
	tb.MapHuge(0, 512, true)
	defer func() {
		if recover() == nil {
			t.Errorf("Map inside a huge leaf did not panic")
		}
	}()
	tb.Map(5, 1, true)
}

func TestCanMapHuge(t *testing.T) {
	tb := New(1)
	if !tb.CanMapHuge(0) {
		t.Errorf("empty table refuses huge map")
	}
	tb.Map(5, 1, true) // a base page inside chunk 0
	if tb.CanMapHuge(0) {
		t.Errorf("chunk with base pages accepts huge map")
	}
	if !tb.CanMapHuge(512) {
		t.Errorf("clean neighboring chunk refused")
	}
	tb.MapHuge(512, 512, true)
	if tb.CanMapHuge(512) {
		t.Errorf("occupied huge chunk accepted")
	}
}

func TestSplitHuge(t *testing.T) {
	tb := New(1)
	tb.MapHuge(1024, 4096, true)
	p, _ := tb.Resolve(1030)
	*p |= BitAccessed | BitDirty
	if !tb.SplitHuge(1030) {
		t.Fatalf("SplitHuge failed")
	}
	if tb.HugeLeaves() != 0 {
		t.Errorf("HugeLeaves = %d after split", tb.HugeLeaves())
	}
	if tb.Mapped() != mem.HugePages || tb.MappedPages() != mem.HugePages {
		t.Errorf("Mapped = %d/%d after split", tb.Mapped(), tb.MappedPages())
	}
	// Children inherit frames consecutively and the A/D bits.
	for _, off := range []uint64{0, 17, 511} {
		pte, huge, ok := tb.Lookup(mem.VPN(1024 + off))
		if !ok || huge {
			t.Fatalf("child %d missing or still huge", off)
		}
		if pte.PFN() != mem.PFN(4096+off) {
			t.Errorf("child %d PFN = %d, want %d", off, pte.PFN(), 4096+off)
		}
		if !pte.Accessed() || !pte.Dirty() || !pte.Writable() {
			t.Errorf("child %d lost inherited bits: %#x", off, uint64(pte))
		}
	}
	// Now individual children can be remapped (migration).
	if !tb.Remap(1024+7, 9999) {
		t.Errorf("post-split Remap failed")
	}
	if tb.SplitHuge(1024) {
		t.Errorf("second split reported success")
	}
}

func TestUnmapHuge(t *testing.T) {
	tb := New(1)
	tb.MapHuge(512, 512, true)
	if !tb.UnmapHuge(512) {
		t.Fatalf("UnmapHuge failed")
	}
	if _, _, ok := tb.Lookup(512); ok {
		t.Errorf("huge page still mapped")
	}
	if tb.MappedPages() != 0 {
		t.Errorf("MappedPages = %d", tb.MappedPages())
	}
}

func TestWalkRangeOrderAndCount(t *testing.T) {
	tb := New(1)
	vpns := []mem.VPN{5, 1 << 18, 3, 512 * 7, 1<<27 + 9}
	for i, v := range vpns {
		tb.Map(v, mem.PFN(i+1), true)
	}
	tb.MapHuge(1<<20, 512, true)
	var visited []mem.VPN
	var hugeSeen int
	n := tb.WalkRange(func(vpn mem.VPN, pte *PTE, huge bool) bool {
		visited = append(visited, vpn)
		if huge {
			hugeSeen++
		}
		return true
	})
	if n != 6 {
		t.Errorf("visited count = %d, want 6 (huge counts once)", n)
	}
	if hugeSeen != 1 {
		t.Errorf("huge leaves seen = %d, want 1", hugeSeen)
	}
	for i := 1; i < len(visited); i++ {
		if visited[i] <= visited[i-1] {
			t.Errorf("walk not ascending: %v", visited)
		}
	}
}

func TestWalkRangeEarlyStop(t *testing.T) {
	tb := New(1)
	for i := 0; i < 10; i++ {
		tb.Map(mem.VPN(i), mem.PFN(i), true)
	}
	count := 0
	tb.WalkRange(func(vpn mem.VPN, pte *PTE, huge bool) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d, want 3", count)
	}
}

func TestWalkRangeTestAndClear(t *testing.T) {
	// The A-bit driver's usage pattern: set A via walker, clear in
	// WalkRange, verify cleared.
	tb := New(1)
	tb.Map(42, 7, true)
	p, _ := tb.Resolve(42)
	*p |= BitAccessed
	tb.WalkRange(func(vpn mem.VPN, pte *PTE, huge bool) bool {
		*pte &^= BitAccessed
		return true
	})
	pte, _, _ := tb.Lookup(42)
	if pte.Accessed() {
		t.Errorf("A bit survived test-and-clear walk")
	}
}

func TestVPNOutOfRangePanics(t *testing.T) {
	tb := New(1)
	defer func() {
		if recover() == nil {
			t.Errorf("37-bit VPN accepted")
		}
	}()
	tb.Map(mem.VPN(1)<<37, 1, true)
}

// TestTableMatchesModel is a model-based property test: a random
// sequence of map/unmap/remap operations must leave the radix table
// equivalent to a flat map.
func TestTableMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := New(1)
	model := map[mem.VPN]mem.PFN{}
	vpnSpace := []mem.VPN{0, 1, 511, 512, 513, 1 << 9, 1 << 18, 1<<18 + 1, 1 << 27, 1<<36 - 1}
	for i := 0; i < 5000; i++ {
		vpn := vpnSpace[rng.Intn(len(vpnSpace))]
		switch rng.Intn(3) {
		case 0:
			pfn := mem.PFN(rng.Intn(1 << 20))
			if _, mapped := model[vpn]; mapped {
				tb.Remap(vpn, pfn)
			} else {
				tb.Map(vpn, pfn, true)
			}
			model[vpn] = pfn
		case 1:
			got := tb.Unmap(vpn)
			_, want := model[vpn]
			if got != want {
				t.Fatalf("op %d: Unmap(%d) = %v, model says %v", i, vpn, got, want)
			}
			delete(model, vpn)
		case 2:
			pte, _, ok := tb.Lookup(vpn)
			pfn, want := model[vpn]
			if ok != want || (ok && pte.PFN() != pfn) {
				t.Fatalf("op %d: Lookup(%d) mismatch", i, vpn)
			}
		}
	}
	if tb.Mapped() != len(model) {
		t.Errorf("Mapped = %d, model has %d", tb.Mapped(), len(model))
	}
	count := 0
	tb.WalkRange(func(vpn mem.VPN, pte *PTE, huge bool) bool {
		if model[vpn] != pte.PFN() {
			t.Errorf("walk found vpn %d -> %d, model says %d", vpn, pte.PFN(), model[vpn])
		}
		count++
		return true
	})
	if count != len(model) {
		t.Errorf("walk visited %d, model has %d", count, len(model))
	}
}

// TestSplitHugeReusesPrunedLeaf checks that a leaf page Unmap pruned
// serves a later split whole: the split must map every subpage of the
// huge frame, with no entry left from the leaf's earlier life, and
// take the spare rather than allocate a leaf.
func TestSplitHugeReusesPrunedLeaf(t *testing.T) {
	tb := New(1)
	for i := 0; i < mem.HugePages; i++ {
		tb.Map(mem.VPN(i), mem.PFN(1000+i), true)
	}
	for i := 0; i < mem.HugePages; i++ {
		tb.Unmap(mem.VPN(i))
	}
	if len(tb.spare) != 1 {
		t.Fatalf("%d spare leaves after pruning one leaf, want 1", len(tb.spare))
	}
	base, frames := mem.VPN(mem.HugePages), mem.PFN(4*mem.HugePages)
	tb.MapHuge(base, frames, false)
	if !tb.SplitHuge(base) {
		t.Fatal("SplitHuge found no huge leaf")
	}
	if len(tb.spare) != 0 {
		t.Errorf("the split left the spare leaf unused")
	}
	for i := 0; i < mem.HugePages; i++ {
		pfn, ok := tb.Frame(base + mem.VPN(i))
		if !ok || pfn != frames+mem.PFN(i) {
			t.Fatalf("subpage %d maps %d (mapped %t), want %d", i, pfn, ok, frames+mem.PFN(i))
		}
	}
	if _, huge := tb.Resolve(base); huge {
		t.Errorf("chunk still huge after split")
	}
}
