package telemetry

import (
	"fmt"
	"io"
	"testing"
	"unsafe"

	"tieredmem/internal/blockcol"
	"tieredmem/internal/testalloc"
)

// TestMigrationRecordSize pins the migration column's record: page
// moves are most of a placement run's events, so their stored size is
// most of the tracer's memory.
func TestMigrationRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(migration{}); got > 24 {
		t.Errorf("migration record is %d bytes, want at most 24", got)
	}
}

// TestEmitMigrationAllocsOnlyAtBlocks pins the migration column's
// growth: steady-state EmitMigration allocates only when it opens a
// block, exactly as often as a bare block column of the same records,
// and never copies what it already holds.
func TestEmitMigrationAllocsOnlyAtBlocks(t *testing.T) {
	const n = 100_000
	tr := New()
	var col blockcol.Column[migration]
	// One run of n calls each, read as a total (TestAllocsPinsTakeOneRun).
	want := testalloc.Once(func() {
		for range n {
			col.Append(migration{})
		}
	})
	got := testalloc.Once(func() {
		for i := range n {
			tr.EmitMigration(int64(i), 100+i%4, uint64(i), i%3 == 0)
		}
	})
	if got != want {
		t.Errorf("%d migrations allocate %v times, want %v: one per block the column opens", n, got, want)
	}
	if limit := float64(n/1024 + 16); want > limit {
		t.Errorf("a block column of %d records allocates %v times, want at most %v", n, want, limit)
	}
}

// TestCutEpochAllocsOnce pins the epoch cut at one allocation, the
// exact-size Deltas, once the counters are registered: no sorted key
// copy, no sort, no append growth. Ten cuts, each moving 35 of 47
// counters.
func TestCutEpochAllocsOnce(t *testing.T) {
	var reg Registry
	ctrs := make([]*Counter, 47)
	for i := range ctrs {
		// Registered out of name order, so insertion keeps the sort.
		ctrs[i] = reg.Counter(fmt.Sprintf("sim/c%02d", (i*13)%47))
	}
	var cuts [10]EpochCounters
	// One run of ten cuts, read as a total (TestAllocsPinsTakeOneRun).
	allocs := testalloc.Count(func() {
		for e := range cuts {
			for i := 0; i < 35; i++ {
				ctrs[(i+e)%47].Add(uint64(e + 1))
			}
			cuts[e] = reg.cutEpoch(e, int64(e))
		}
	})
	if allocs != float64(len(cuts)) {
		t.Errorf("%d epoch cuts allocate %v times, want one each", len(cuts), allocs)
	}
	for e, c := range cuts {
		if len(c.Deltas) != 35 || cap(c.Deltas) != 35 {
			t.Fatalf("cut %d: %d deltas (cap %d), want 35 and 35", e, len(c.Deltas), cap(c.Deltas))
		}
		for i := 1; i < len(c.Deltas); i++ {
			if c.Deltas[i-1].Name >= c.Deltas[i].Name {
				t.Fatalf("cut %d: deltas out of name order at %d: %q, %q", e, i, c.Deltas[i-1].Name, c.Deltas[i].Name)
			}
		}
	}
	if quiet := reg.cutEpoch(10, 10); quiet.Deltas != nil {
		t.Errorf("a cut with no counter moved has deltas %v, want none", quiet.Deltas)
	}
}

// refStream is the reference model for the tracer's storage: every
// event a full Event in one slice, stamped with the epoch in force when
// it was emitted.
type refStream struct {
	events []Event
	epoch  int32
}

func (r *refStream) emit(e Event) {
	e.Epoch = r.epoch
	r.events = append(r.events, e)
}

// FuzzTracerStreamOrder drives one sequence of Emit* and CutEpoch
// calls through a tracer and the reference model, then checks that
// the tracer's merged walk yields exactly the reference's events: same
// order, same epochs, same payloads. Each byte is one call: the low
// nibble picks it (six of sixteen values emit a migration, the bulk of
// a real stream) and the high nibble is its payload.
func FuzzTracerStreamOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x1a, 0x2b, 0x00, 0x3c, 0x04, 0x15, 0x00, 0x00, 0x26})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0f, 0x00})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tr := New()
		var ref refStream
		for i, op := range ops {
			now, v := int64(i)*100, uint64(op>>4)
			switch op & 0xf {
			case 0:
				tr.CutEpoch(now, int(v))
				ref.emit(Event{Now: now, Kind: KindEpochCut, Sub: SubSim, A: v})
				ref.epoch++
			case 1:
				tr.EmitDaemonTick(now, int64(v))
				ref.emit(Event{Now: now, Dur: int64(v), Kind: KindDaemonTick, Sub: SubDaemon})
			case 2:
				tr.EmitAbitScan(now, int64(v), int(v)+1, int(v), int(v)/2)
				ref.emit(Event{Now: now, Dur: int64(v), Kind: KindAbitScan, Sub: SubAbit, A: v + 1, B: v, C: v / 2})
			case 3:
				tr.EmitIBSDrain(now, int64(v), int(v), v/3)
				ref.emit(Event{Now: now, Dur: int64(v), Kind: KindIBSDrain, Sub: SubIBS, A: v, B: v / 3})
			case 4:
				tr.EmitGate(now, "llc_miss", v%2 == 0, v, 15, 2000)
				ref.emit(Event{Now: now, Kind: KindGate, Sub: SubHWPC, Name: "llc_miss", Open: v%2 == 0, A: v, B: 15, C: 2000})
			case 5:
				tr.EmitShootdown(now, int64(v), int(v))
				ref.emit(Event{Now: now, Dur: int64(v), Kind: KindShootdown, Sub: SubMover, A: v})
			case 6:
				tr.EmitFilter(now, int(v), 16)
				ref.emit(Event{Now: now, Kind: KindFilter, Sub: SubDaemon, A: v, B: 16})
			case 7:
				tr.EmitQuarantine(now, "ibs", v, 16)
				ref.emit(Event{Now: now, Kind: KindQuarantine, Sub: SubFault, Name: "ibs", A: v, B: 16})
			case 8, 9:
				tr.EmitDevFlush(now, v, v/2, v/4)
				ref.emit(Event{Now: now, Kind: KindDevFlush, Sub: SubDevProf, A: v, B: v / 2, C: v / 4})
			default:
				promote, pid, vpn := op&1 == 1, int32(100+v), uint64(i)<<12|v
				tr.EmitMigration(now, int(pid), vpn, promote)
				dir := "demote"
				if promote {
					dir = "promote"
				}
				ref.emit(Event{Now: now, Kind: KindMigration, Sub: SubMover, PID: pid, VPN: vpn, Name: dir})
			}
		}
		n := 0
		for w := tr.Events(); w.Next(); n++ {
			if n >= len(ref.events) {
				t.Fatalf("walk yields more than the %d events emitted", len(ref.events))
			}
			if got, want := *w.Event(), ref.events[n]; got != want {
				t.Fatalf("event %d: walk yields %+v, emitted %+v", n, got, want)
			}
		}
		if n != len(ref.events) {
			t.Fatalf("walk yields %d events, emitted %d", n, len(ref.events))
		}
	})
}

// TestWriteJSONLAllocsFlat: the event log renders into one buffer it
// reuses for every chunk, so a trace a hundred times longer costs no
// more allocations to write.
func TestWriteJSONLAllocsFlat(t *testing.T) {
	allocs := func(events int) float64 {
		tr := New()
		ctr := tr.Counter("mover/promotions")
		for i := 0; i < events; i++ {
			tr.EmitMigration(int64(i)*10, 100+i%4, uint64(i), i%3 == 0)
			if i%100 == 99 {
				ctr.Add(1)
				tr.CutEpoch(int64(i)*10, 100)
			}
		}
		runs := []Labeled{{Label: "long", Tracer: tr}}
		// Three writes in one run, read as a total.
		return testalloc.Count(func() {
			for range 3 {
				if err := WriteJSONL(io.Discard, runs); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if short, long := allocs(1_000), allocs(100_000); long != short {
		t.Errorf("three WriteJSONL calls allocate %.0f times for 100,000 events and %.0f for 1,000; want the same", long, short)
	}
}
