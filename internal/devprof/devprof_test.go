package devprof

import (
	"errors"
	"testing"

	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/trace"
)

// deviceMem builds a 3-tier machine whose middle tier (cxl) is
// device-profiled, and allocates want frames in it.
func deviceMem(t *testing.T, want int) (*mem.PhysMem, []mem.PFN) {
	t.Helper()
	chain, err := mem.ParseTierChain("dram:64/cxl:64/nvm:64")
	if err != nil {
		t.Fatalf("ParseTierChain: %v", err)
	}
	phys, err := mem.NewPhysMem(chain)
	if err != nil {
		t.Fatalf("NewPhysMem: %v", err)
	}
	pfns := make([]mem.PFN, want)
	for i := range pfns {
		pfn, err := phys.AllocIn(mem.TierID(1), 1, mem.VPN(i))
		if err != nil {
			t.Fatalf("AllocIn: %v", err)
		}
		pfns[i] = pfn
	}
	return phys, pfns
}

// touch observes one access to pfn through the tracker.
func touch(tk *Tracker, pfn mem.PFN, src trace.DataSource) {
	o := trace.Outcome{PAddr: pfn.PAddrOf(), Source: src}
	tk.ObserveRetire(&o, 1)
}

func TestNewRejectsBadConfig(t *testing.T) {
	phys, _ := deviceMem(t, 1)
	if _, err := New(Config{Slots: 0}, phys); err == nil {
		t.Fatal("New with zero slots succeeded")
	}
	flat, err := mem.NewPhysMem(mem.DefaultTiers(16, 16))
	if err != nil {
		t.Fatalf("NewPhysMem: %v", err)
	}
	if _, err := New(DefaultConfig(), flat); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("New on deviceless machine: err = %v, want ErrNoDevice", err)
	}
}

func TestObserveFoldsIntoDescriptors(t *testing.T) {
	phys, pfns := deviceMem(t, 3)
	tk, err := New(DefaultConfig(), phys)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// 3 + 2 + 1 accesses across the three device frames; traffic to
	// non-device tiers and non-memory sources must be invisible.
	for i, pfn := range pfns {
		for n := 0; n <= i; n++ {
			touch(tk, pfn, trace.SrcTier2)
		}
	}
	touch(tk, 0, trace.SrcTier1)     // dram frame: not device-profiled
	touch(tk, 64+64, trace.SrcTier2) // nvm frame: not device-profiled
	touch(tk, pfns[0], trace.SrcLLC) // cache hit: never reached memory
	if got := tk.Stats().Observed; got != 6 {
		t.Fatalf("Observed = %d, want 6", got)
	}
	folded, err := tk.FlushAt(1000)
	if err != nil || folded != 6 {
		t.Fatalf("FlushAt = (%d, %v), want (6, nil)", folded, err)
	}
	for i, pfn := range pfns {
		if got := phys.Page(pfn).Epoch.Dev; got != uint32(i+1) {
			t.Errorf("frame %d Epoch.Dev = %d, want %d", pfn, got, i+1)
		}
	}
	// Flushed counters are cleared: a second flush delivers nothing
	// and descriptors keep their epoch counts.
	if folded, err := tk.FlushAt(2000); err != nil || folded != 0 {
		t.Fatalf("second FlushAt = (%d, %v), want (0, nil)", folded, err)
	}
	if got := phys.Page(pfns[2]).Epoch.Dev; got != 3 {
		t.Fatalf("Epoch.Dev after idle flush = %d, want 3", got)
	}
}

func TestDirectMappedCollision(t *testing.T) {
	phys, pfns := deviceMem(t, 5)
	tk, err := New(Config{Slots: 4}, phys)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// pfns[0] and pfns[4] share slot 0 of a 4-entry table; the second
	// frame's accesses drop as collisions.
	touch(tk, pfns[0], trace.SrcTier2)
	touch(tk, pfns[4], trace.SrcTier2)
	touch(tk, pfns[4], trace.SrcTier2)
	st := tk.Stats()
	if st.Observed != 3 || st.Collisions != 2 {
		t.Fatalf("Observed, Collisions = %d, %d; want 3, 2", st.Observed, st.Collisions)
	}
	if folded, err := tk.FlushAt(0); err != nil || folded != 1 {
		t.Fatalf("FlushAt = (%d, %v), want (1, nil)", folded, err)
	}
	// Post-flush the slot is free again: the colliding frame can now
	// claim it.
	touch(tk, pfns[4], trace.SrcTier2)
	if folded, _ := tk.FlushAt(0); folded != 1 {
		t.Fatalf("colliding frame did not claim freed slot")
	}
	if got := phys.Page(pfns[4]).Epoch.Dev; got != 1 {
		t.Fatalf("pfns[4] Epoch.Dev = %d, want 1", got)
	}
}

func TestVanishedFrames(t *testing.T) {
	phys, pfns := deviceMem(t, 2)
	tk, err := New(DefaultConfig(), phys)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	touch(tk, pfns[0], trace.SrcTier2)
	touch(tk, pfns[1], trace.SrcTier2)
	phys.Free(pfns[1])
	folded, err := tk.FlushAt(0)
	if err != nil || folded != 1 {
		t.Fatalf("FlushAt = (%d, %v), want (1, nil)", folded, err)
	}
	if got := tk.Stats().Vanished; got != 1 {
		t.Fatalf("Vanished = %d, want 1", got)
	}
}

func TestInjectedOverflowLosesBatch(t *testing.T) {
	phys, pfns := deviceMem(t, 2)
	tk, err := New(DefaultConfig(), phys)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec, err := fault.ParseSpec("devprof.overflow=1")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	plane := fault.New(spec, 7)
	tk.SetFaultPlane(plane)
	touch(tk, pfns[0], trace.SrcTier2)
	touch(tk, pfns[1], trace.SrcTier2)
	folded, err := tk.FlushAt(0)
	if !errors.Is(err, ErrOverflow) || folded != 0 {
		t.Fatalf("FlushAt = (%d, %v), want (0, ErrOverflow)", folded, err)
	}
	st := tk.Stats()
	if st.FaultOverflows != 1 || st.FaultLost != 2 || st.Folded != 0 {
		t.Fatalf("stats after overflow = %+v", st)
	}
	if got := phys.Page(pfns[0]).Epoch.Dev; got != 0 {
		t.Fatalf("Epoch.Dev after lost batch = %d, want 0", got)
	}
	if lost, attempts := st.FaultRate(); lost != 2 || attempts != 2 {
		t.Fatalf("FaultRate = (%d, %d), want (2, 2)", lost, attempts)
	}
	// An idle tracker draws nothing: the next flush must not consult
	// the plane (stream independence for quiet devices).
	draws := plane.Draws(fault.SiteDevOverflow)
	if _, err := tk.FlushAt(1); err != nil {
		t.Fatalf("idle FlushAt: %v", err)
	}
	if got := plane.Draws(fault.SiteDevOverflow); got != draws {
		t.Fatalf("idle flush drew from the fault stream: %d -> %d", draws, got)
	}
}

func TestInjectedStaleDefersDelivery(t *testing.T) {
	phys, pfns := deviceMem(t, 1)
	tk, err := New(DefaultConfig(), phys)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec, err := fault.ParseSpec("devprof.stale=1")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	tk.SetFaultPlane(fault.New(spec, 7))
	touch(tk, pfns[0], trace.SrcTier2)
	folded, err := tk.FlushAt(0)
	if !errors.Is(err, ErrStale) || folded != 0 {
		t.Fatalf("FlushAt = (%d, %v), want (0, ErrStale)", folded, err)
	}
	if got := phys.Page(pfns[0]).Epoch.Dev; got != 0 {
		t.Fatalf("stale flush delivered: Epoch.Dev = %d", got)
	}
	if st := tk.Stats(); st.FaultStale != 1 || st.FaultLate != 1 {
		t.Fatalf("stats after stale = %+v", st)
	}
	// The counts carried over: with the injection gone they arrive,
	// together with anything staged since.
	tk.SetFaultPlane(nil)
	touch(tk, pfns[0], trace.SrcTier2)
	folded, err = tk.FlushAt(1)
	if err != nil || folded != 2 {
		t.Fatalf("carry-over FlushAt = (%d, %v), want (2, nil)", folded, err)
	}
	if got := phys.Page(pfns[0]).Epoch.Dev; got != 2 {
		t.Fatalf("Epoch.Dev after carry-over = %d, want 2", got)
	}
}

func TestQuarantineIsSticky(t *testing.T) {
	phys, pfns := deviceMem(t, 1)
	tk, err := New(DefaultConfig(), phys)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tk.Quarantine()
	if !tk.Quarantined() {
		t.Fatal("Quarantined() = false after Quarantine()")
	}
	tk.Enable()
	touch(tk, pfns[0], trace.SrcTier2)
	if got := tk.Stats().Observed; got != 0 {
		t.Fatalf("quarantined tracker observed %d accesses", got)
	}
}

func TestTelemetryRecordsFlushes(t *testing.T) {
	phys, pfns := deviceMem(t, 1)
	tk, err := New(DefaultConfig(), phys)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tel := telemetry.New()
	tk.SetTracer(tel)
	touch(tk, pfns[0], trace.SrcTier2)
	touch(tk, pfns[0], trace.SrcTier2)
	if _, err := tk.FlushAt(500); err != nil {
		t.Fatalf("FlushAt: %v", err)
	}
	var events []telemetry.Event
	for w := tel.Events(); w.Next(); {
		events = append(events, *w.Event())
	}
	if len(events) != 1 || events[0].Kind != telemetry.KindDevFlush {
		t.Fatalf("events = %+v, want one KindDevFlush", events)
	}
	if e := events[0]; e.Now != 500 || e.A != 2 || e.B != 0 || e.C != 0 {
		t.Fatalf("flush event = %+v", e)
	}
	vals := tel.Registry().Totals()
	want := map[string]uint64{
		"devprof/observed": 2,
		"devprof/folded":   2,
		"devprof/flushes":  1,
	}
	for _, kv := range vals {
		if w, ok := want[kv.Name]; ok && kv.Value != w {
			t.Errorf("counter %s = %d, want %d", kv.Name, kv.Value, w)
		}
	}
}

func TestCountSaturates(t *testing.T) {
	phys, pfns := deviceMem(t, 1)
	tk, err := New(Config{Slots: 1}, phys)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pd := phys.Page(pfns[0])
	pd.Epoch.Dev = ^uint32(0) - 1
	touch(tk, pfns[0], trace.SrcTier2)
	touch(tk, pfns[0], trace.SrcTier2)
	touch(tk, pfns[0], trace.SrcTier2)
	if _, err := tk.FlushAt(0); err != nil {
		t.Fatalf("FlushAt: %v", err)
	}
	if pd.Epoch.Dev != ^uint32(0) {
		t.Fatalf("Epoch.Dev = %d, want saturation at %d", pd.Epoch.Dev, ^uint32(0))
	}
}
