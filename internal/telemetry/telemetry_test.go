package telemetry

import (
	"bytes"
	"testing"

	"tieredmem/internal/testalloc"
)

// TestNilTracerNoOps pins the disabled state: every method on a nil
// tracer, registry, and counter is callable and allocation-free, which
// is what lets engines wire emit sites unconditionally.
func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	op := func() {
		tr.CutEpoch(10, 1)
		tr.EmitDaemonTick(10, 5)
		tr.EmitAbitScan(10, 5, 1, 1, 0)
		tr.EmitIBSDrain(10, 5, 1, 0)
		tr.EmitGate(10, "llc_miss", true, 1, 2, 2000)
		tr.EmitMigration(10, 1, 0x1000, true)
		tr.EmitShootdown(10, 5, 1)
		tr.EmitFilter(10, 1, 1)
		c := tr.Counter("x/y")
		c.Add(1)
		c.AddNS(5)
		c.Set(9)
		_ = c.Value()
		_ = tr.Registry().Counter("z/w")
		for w := tr.Events(); w.Next(); {
			t.Fatal("nil tracer walked an event")
		}
		_ = tr.EpochCuts()
		h := tr.Histogram("x/y_hist")
		h.Observe(7)
		h.ObserveN(3, 4)
		_ = h.Count()
		_ = h.Max()
		_ = h.Percentile(50)
		_ = tr.Registry().Histogram("z/w_hist")
		_ = tr.Distributions()
	}
	// One run of many calls, read as a total (TestAllocsPinsTakeOneRun).
	const calls = 100
	allocs := testalloc.Count(func() {
		for range calls {
			op()
		}
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %v times in %d calls; the disabled state must be free", allocs, calls)
	}
}

// TestNilTracerExportsEmpty checks that exports of nil tracers still
// produce well-formed output instead of panicking.
func TestNilTracerExportsEmpty(t *testing.T) {
	runs := []Labeled{{Label: "empty", Tracer: nil}}
	var b bytes.Buffer
	if err := WriteJSONL(&b, runs); err != nil {
		t.Fatalf("WriteJSONL(nil tracer): %v", err)
	}
	b.Reset()
	if err := WriteChromeTrace(&b, runs); err != nil {
		t.Fatalf("WriteChromeTrace(nil tracer): %v", err)
	}
}

// TestCutEpochDeltas pins the per-epoch counter aggregation: deltas
// are since the previous cut, zero deltas are omitted, and names come
// out sorted.
func TestCutEpochDeltas(t *testing.T) {
	tr := New()
	a := tr.Counter("b/one")
	b := tr.Counter("a/two")
	a.Add(5)
	b.Add(3)
	tr.CutEpoch(100, 1)
	a.Add(2)
	tr.CutEpoch(200, 1)

	cuts := tr.EpochCuts()
	if len(cuts) != 2 {
		t.Fatalf("EpochCuts = %d, want 2", len(cuts))
	}
	first := cuts[0]
	if first.Epoch != 0 || first.Now != 100 {
		t.Errorf("first cut = epoch %d now %d, want 0/100", first.Epoch, first.Now)
	}
	if len(first.Deltas) != 2 || first.Deltas[0].Name != "a/two" || first.Deltas[0].Value != 3 ||
		first.Deltas[1].Name != "b/one" || first.Deltas[1].Value != 5 {
		t.Errorf("first deltas = %+v, want sorted a/two=3, b/one=5", first.Deltas)
	}
	second := cuts[1]
	if len(second.Deltas) != 1 || second.Deltas[0].Name != "b/one" || second.Deltas[0].Value != 2 {
		t.Errorf("second deltas = %+v, want only b/one=2", second.Deltas)
	}
}

// TestEventsCarryEpoch checks that emitted events are stamped with the
// epoch being collected when they fire.
func TestEventsCarryEpoch(t *testing.T) {
	tr := New()
	tr.EmitDaemonTick(10, 1)
	tr.CutEpoch(100, 0)
	tr.EmitDaemonTick(110, 1)

	var evs []Event
	for w := tr.Events(); w.Next(); {
		evs = append(evs, *w.Event())
	}
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	if evs[0].Epoch != 0 || evs[1].Epoch != 0 || evs[2].Epoch != 1 {
		t.Errorf("epochs = %d,%d,%d, want 0,0,1", evs[0].Epoch, evs[1].Epoch, evs[2].Epoch)
	}
}

// TestCounterReuse pins create-on-first-use semantics: the same name
// returns the same counter.
func TestCounterReuse(t *testing.T) {
	tr := New()
	c1 := tr.Counter("mem/alloc_frames")
	c1.Add(4)
	c2 := tr.Counter("mem/alloc_frames")
	if c1 != c2 {
		t.Fatal("same name returned distinct counters")
	}
	if c2.Value() != 4 {
		t.Fatalf("Value = %d, want 4", c2.Value())
	}
	names := tr.Registry().Names()
	if len(names) != 1 || names[0] != "mem/alloc_frames" {
		t.Fatalf("Names = %v", names)
	}
}

// TestAttributionSubsystemFallback checks the counter fallback: a
// subsystem with no span events (mem) is attributed its _ns counters,
// while span-emitting subsystems keep the span sum.
func TestAttributionSubsystemFallback(t *testing.T) {
	tr := New()
	tr.Counter("mem/compact_ns").AddNS(300)
	tr.EmitAbitScan(10, 400, 1, 1, 0)
	// Mirror counter for the same charge must not double-count.
	tr.Counter("abit/overhead_ns").AddNS(400)

	rows := tr.Attribution(1_000, 1)
	var memNS, abitNS int64
	for _, r := range rows {
		switch r.Subsystem {
		case "mem":
			memNS = r.VirtualNS
		case "abit":
			abitNS = r.VirtualNS
		}
	}
	if memNS != 300 {
		t.Errorf("mem attributed %d ns, want 300 (counter fallback)", memNS)
	}
	if abitNS != 400 {
		t.Errorf("abit attributed %d ns, want 400 (span sum, not span+counter)", abitNS)
	}
}
