package policy

import (
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/cpu"
	"tieredmem/internal/mem"
	"tieredmem/internal/provenance"
	"tieredmem/internal/trace"
)

// carried is a whole evidence record with every source nonzero, so a
// page transfer that drops any field shows.
var carried = mem.Evidence{Abit: 1, Trace: 2, Dev: 4, True: 5}

// markProfile sets the profiling state of the frame pid 1's vpn maps:
// its epoch evidence and an all-time total of at least the frame's
// current one. Only an epoch fold writes a total, so markProfile folds
// the difference in first.
func markProfile(t *testing.T, m *cpu.Machine, vpn mem.VPN, ev mem.Evidence, total uint64) {
	t.Helper()
	pfn, ok := m.Table(1).Frame(vpn)
	if !ok {
		t.Fatalf("vpn %d not mapped", vpn)
	}
	m.Phys.TrackTrueTotals()
	pd := m.Phys.Page(pfn)
	pd.Epoch = mem.Evidence{True: uint32(total - m.Phys.TrueTotal(pfn))}
	m.Phys.ResetEpoch(pfn)
	pd.Epoch = ev
}

// checkProfile asserts the frame pid 1's vpn maps now carries ev and
// total.
func checkProfile(t *testing.T, m *cpu.Machine, what string, vpn mem.VPN, ev mem.Evidence, total uint64) {
	t.Helper()
	pfn, ok := m.Table(1).Frame(vpn)
	if !ok {
		t.Fatalf("%s: vpn %d not mapped", what, vpn)
	}
	if pd := m.Phys.Page(pfn); pd.Epoch != ev || m.Phys.TrueTotal(pfn) != total {
		t.Errorf("%s: vpn %d arrived with Epoch %+v, TrueTotal %d; want %+v, %d",
			what, vpn, pd.Epoch, m.Phys.TrueTotal(pfn), ev, total)
	}
}

func TestMigrateCarriesEvidence(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 4)
	markProfile(t, m, 2, carried, 60)
	if f := NewMover(m).migrate(core.PageKey{PID: 1, VPN: 2}, mem.SlowTier); f != provenance.FailNone {
		t.Fatal(f)
	}
	if tierOf(t, m, 1, 2) != mem.SlowTier {
		t.Fatal("vpn 2 not demoted")
	}
	checkProfile(t, m, "migrate", 2, carried, 60)
}

func TestMigrateTxCarriesEvidence(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 5) // 0..3 fast, 4 slow
	mv := NewMover(m)
	mv.Transactional = true
	markProfile(t, m, 3, carried, 60)
	if f := mv.migrate(core.PageKey{PID: 1, VPN: 3}, mem.SlowTier); f != provenance.FailNone {
		t.Fatal(f)
	}
	checkProfile(t, m, "tx demotion", 3, carried, 60)
	markProfile(t, m, 4, carried, 60)
	if f := mv.migrate(core.PageKey{PID: 1, VPN: 4}, mem.FastTier); f != provenance.FailNone {
		t.Fatal(f)
	}
	if mv.TxCommitted != 2 {
		t.Fatalf("TxCommitted = %d, want 2", mv.TxCommitted)
	}
	checkProfile(t, m, "tx promotion", 4, carried, 60)
}

func TestShadowAdoptionCarriesEvidence(t *testing.T) {
	m := moverMachine(t, 4, 16)
	touchPages(t, m, 1, 5) // 0..3 fast, 4 slow
	mv := NewMover(m)
	mv.Transactional = true
	if f := mv.migrate(core.PageKey{PID: 1, VPN: 3}, mem.SlowTier); f != provenance.FailNone {
		t.Fatal(f)
	}
	markProfile(t, m, 4, carried, 60)
	shadow, _ := m.Table(1).Frame(4)
	if f := mv.migrate(core.PageKey{PID: 1, VPN: 4}, mem.FastTier); f != provenance.FailNone {
		t.Fatal(f)
	}
	// Evidence gathered after the promotion makes the shadow frame's
	// old copy stale, so only a carry at adoption delivers it.
	want := carried
	want.Abit += 10
	markProfile(t, m, 4, want, 70)
	if f := mv.migrate(core.PageKey{PID: 1, VPN: 4}, mem.SlowTier); f != provenance.FailNone {
		t.Fatal(f)
	}
	if pfn, _ := m.Table(1).Frame(4); mv.ShadowHits != 1 || pfn != shadow {
		t.Fatalf("ShadowHits = %d, vpn 4 on PFN %d; want 1 adoption of shadow PFN %d", mv.ShadowHits, pfn, shadow)
	}
	checkProfile(t, m, "shadow adoption", 4, want, 70)
}

// TestCollapseCarriesEvidence collapses a split huge page in a 3-tier
// chain's device tier, where device-side counts are nonzero.
func TestCollapseCarriesEvidence(t *testing.T) {
	m := chainMachine(t, "dram:4/cxl:2048/nvm:2048")
	m.SetHugeHint(func(pid int, vpn mem.VPN) bool { return true })
	if _, err := m.Execute(trace.Ref{PID: 1, VAddr: 0, Kind: trace.Load}); err != nil {
		t.Fatal(err)
	}
	if tierOf(t, m, 1, 3) != 1 {
		t.Fatalf("precondition: huge page in tier %d, want the device tier 1", tierOf(t, m, 1, 3))
	}
	mv := NewMover(m)
	for _, target := range []mem.TierID{2, 1} {
		if f := mv.migrate(core.PageKey{PID: 1, VPN: 7}, target); f != provenance.FailNone {
			t.Fatal(f)
		}
	}
	markProfile(t, m, 3, carried, 60)
	if n := NewCollapser(m).Collapse([]int{1}, 1); n != 1 {
		t.Fatalf("collapsed %d chunks, want 1", n)
	}
	checkProfile(t, m, "collapse", 3, carried, 60)
}
