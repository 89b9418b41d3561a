package policy

import (
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/mem"
	"tieredmem/internal/provenance"
	"tieredmem/internal/trace"
)

func TestCollapserRebuildsSplitHugePage(t *testing.T) {
	m := moverMachine(t, 4*mem.HugePages, 4*mem.HugePages)
	m.SetHugeHint(func(pid int, vpn mem.VPN) bool { return true })
	if _, err := m.Execute(trace.Ref{PID: 1, VAddr: 0, Kind: trace.Load}); err != nil {
		t.Fatal(err)
	}
	// Split via the mover by migrating one subpage out and back.
	mv := NewMover(m)
	if f := mv.migrate(core.PageKey{PID: 1, VPN: 7}, mem.SlowTier); f != provenance.FailNone {
		t.Fatal(f)
	}
	if f := mv.migrate(core.PageKey{PID: 1, VPN: 7}, mem.FastTier); f != provenance.FailNone {
		t.Fatal(f)
	}
	if m.Table(1).HugeLeaves() != 0 {
		t.Fatalf("precondition: mapping not split")
	}

	// Mark some profiling state to verify preservation.
	pfn3, _ := m.Table(1).Frame(3)
	m.Phys.Page(pfn3).Epoch.Abit = 7

	kc := NewCollapser(m)
	n := kc.Collapse([]int{1}, 10)
	if n != 1 || kc.Collapses != 1 {
		t.Fatalf("collapsed %d chunks, want 1", n)
	}
	if m.Table(1).HugeLeaves() != 1 {
		t.Errorf("huge leaf not re-established")
	}
	// Frames are contiguous again and state survived.
	base, _ := m.Table(1).Frame(0)
	if uint64(base)%mem.HugePages != 0 {
		t.Errorf("collapsed base PFN %d not aligned", base)
	}
	for i := 0; i < mem.HugePages; i++ {
		pfn, ok := m.Table(1).Frame(mem.VPN(i))
		if !ok || pfn != base+mem.PFN(i) {
			t.Fatalf("subpage %d not contiguous after collapse", i)
		}
	}
	newPFN3, _ := m.Table(1).Frame(3)
	if m.Phys.Page(newPFN3).Epoch.Abit != 7 {
		t.Errorf("profiling state lost in collapse")
	}
	// The chunk must still be usable.
	if _, err := m.Execute(trace.Ref{PID: 1, VAddr: 7 * 4096, Kind: trace.Store}); err != nil {
		t.Fatalf("access after collapse: %v", err)
	}
	if kc.OverheadNS == 0 {
		t.Errorf("collapse cost not recorded")
	}
}

func TestCollapserSkipsTierStraddlingChunks(t *testing.T) {
	m := moverMachine(t, 4*mem.HugePages, 4*mem.HugePages)
	m.SetHugeHint(func(pid int, vpn mem.VPN) bool { return true })
	m.Execute(trace.Ref{PID: 1, VAddr: 0, Kind: trace.Load})
	mv := NewMover(m)
	// Leave subpage 7 in the slow tier: the chunk straddles tiers.
	if f := mv.migrate(core.PageKey{PID: 1, VPN: 7}, mem.SlowTier); f != provenance.FailNone {
		t.Fatal(f)
	}
	kc := NewCollapser(m)
	if n := kc.Collapse([]int{1}, 10); n != 0 {
		t.Errorf("collapsed %d tier-straddling chunks, want 0", n)
	}
}

func TestCollapserSkipsPartialChunks(t *testing.T) {
	m := moverMachine(t, 4*mem.HugePages, 4*mem.HugePages)
	// 4 KiB pages only, not chunk-aligned coverage.
	for i := uint64(0); i < 100; i++ {
		m.Execute(trace.Ref{PID: 1, VAddr: i * 4096, Kind: trace.Load})
	}
	kc := NewCollapser(m)
	if n := kc.Collapse([]int{1}, 10); n != 0 {
		t.Errorf("collapsed %d partial chunks, want 0", n)
	}
}

func TestCollapserRateLimit(t *testing.T) {
	m := moverMachine(t, 8*mem.HugePages, 8*mem.HugePages)
	m.SetHugeHint(func(pid int, vpn mem.VPN) bool { return true })
	// Two huge chunks, both split.
	m.Execute(trace.Ref{PID: 1, VAddr: 0, Kind: trace.Load})
	m.Execute(trace.Ref{PID: 1, VAddr: uint64(mem.HugePages) * 4096, Kind: trace.Load})
	for _, base := range []mem.VPN{0, mem.HugePages} {
		if !m.Table(1).SplitHuge(base) {
			t.Fatal("split failed")
		}
	}
	kc := NewCollapser(m)
	if n := kc.Collapse([]int{1}, 1); n != 1 {
		t.Fatalf("rate-limited collapse did %d, want 1", n)
	}
	if n := kc.Collapse([]int{1}, 10); n != 1 {
		t.Fatalf("second pass collapsed %d, want the remaining 1", n)
	}
}
