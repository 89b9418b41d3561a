package provenance

import (
	"slices"
	"testing"
	"unsafe"

	"tieredmem/internal/core"
	"tieredmem/internal/mem"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/testalloc"
)

// refSnapshot is the copying Snapshot the zero-copy one replaced, kept
// as its reference model: it copies each page's surviving ring, oldest
// record first, into a fresh slice and leaves the recorder untouched.
func refSnapshot(r *Recorder, label string) Log {
	lg := Log{Schema: telemetry.SchemaVersion, Label: label}
	if r == nil {
		return lg
	}
	lg.LastK = r.lastK
	lg.PingPongK = r.pingK
	for id := 0; id < r.tab.Len(); id++ {
		st := r.pages.At(id)
		cnt := int(st.n)
		if cnt == 0 {
			continue
		}
		pl := PageLog{Key: r.tab.Key(uint32(id)), Flips: st.flips}
		kept := cnt
		start := 0
		if cnt > r.lastK {
			kept = r.lastK
			start = cnt % r.lastK
			pl.Dropped = uint64(cnt - r.lastK)
		}
		ring := r.rings.Row(id)
		pl.Records = make([]Record, 0, kept)
		for j := 0; j < kept; j++ {
			pl.Records = append(pl.Records, ring[(start+j)%r.lastK])
		}
		lg.Pages = append(lg.Pages, pl)
	}
	slices.SortFunc(lg.Pages, func(a, b PageLog) int { return core.PageKeyCmp(a.Key, b.Key) })
	return lg
}

// TestRecordSize pins the decision record at 40 bytes: every page a
// recorder sees keeps lastK of them.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 40 {
		t.Errorf("provenance.Record is %d bytes, want 40", got)
	}
}

// fillRecorder records pages pages over epochs epochs, every page in
// every epoch's harvest, a quarter of them selected and promoted.
func fillRecorder(pages, epochs int) *Recorder {
	r := New()
	ep := core.EpochStats{Pages: make([]core.PageStat, pages)}
	for e := 0; e < epochs; e++ {
		for i := range ep.Pages {
			ep.Pages[i] = core.PageStat{Key: key(100+i%4, uint64(pages-i)),
				Evidence: mem.Evidence{Abit: uint32(i % 7), Trace: uint32(e)}, Tier: 1}
		}
		ep.Epoch = e
		r.BeginEpoch(e, core.MethodCombined, core.MethodCombined, 0)
		r.ObserveHarvest(ep, func(k core.PageKey) bool { return k.VPN%4 == 0 })
		for i := 0; i < pages; i += 4 {
			r.NoteMove(ep.Pages[i].Key, e%2 == 0, mem.TierID(e%2))
		}
		r.FinishEpoch()
	}
	return r
}

// TestSnapshotAllocs pins the zero-copy Snapshot: a recorder holding
// 4,096 pages, every ring wrapped, snapshots in at most two
// allocations (Pages itself), where the copying Snapshot made one per
// page.
func TestSnapshotAllocs(t *testing.T) {
	r := fillRecorder(4096, DefaultLastK+3)
	var lg Log
	allocs := testalloc.Once(func() { lg = r.Snapshot("t") })
	if allocs > 2 {
		t.Errorf("Snapshot of 4,096 pages allocates %v times, want at most 2", allocs)
	}
	if len(lg.Pages) != 4096 {
		t.Fatalf("snapshot holds %d pages, want 4096", len(lg.Pages))
	}
	for _, pg := range lg.Pages {
		if len(pg.Records) != DefaultLastK || pg.Dropped != 3 || pg.Records[0].Epoch != 3 {
			t.Fatalf("page %v: %d records, %d dropped, oldest epoch %d; want %d, 3, 3",
				pg.Key, len(pg.Records), pg.Dropped, pg.Records[0].Epoch, DefaultLastK)
		}
	}
}

// TestSnapshotConsumes pins Snapshot as the recorder's last call: its
// log aliases the rings, so a second Snapshot or any further
// recording panics instead of rotating or overwriting what the log
// holds.
func TestSnapshotConsumes(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s after Snapshot did not panic", name)
			}
		}()
		f()
	}
	r := fillRecorder(8, 2)
	r.Snapshot("t")
	mustPanic("Snapshot", func() { r.Snapshot("t") })
	mustPanic("ObserveHarvest", func() {
		r.ObserveHarvest(core.EpochStats{Pages: []core.PageStat{{Key: key(1, 1)}}}, nil)
	})
	mustPanic("NoteMove", func() { r.NoteMove(key(100, 8), true, mem.FastTier) })
	mustPanic("Note", func() { r.Note(key(100, 8), VerdictFailed, FailPinned) })
}

// FuzzSnapshotMatchesCopy drives one random sequence of epochs,
// harvests and mover notes over six pages through a recorder with a
// random ring depth, then checks that the zero-copy Snapshot yields
// exactly what the copying reference yields, field for field (Fail
// included: a deferral keeps the reason that queued it). The
// first byte picks lastK (1–12); each later byte is one call, its low
// three bits the call and the high five its payload, so a long input
// wraps the rings many times over.
func FuzzSnapshotMatchesCopy(f *testing.F) {
	f.Add([]byte{7})
	f.Add([]byte{11, 0xfa, 0x1b, 0x00, 0x1a, 0x2c, 0x00, 0x0a, 0x2e})
	f.Add([]byte{2, 0xfa, 0x33, 0x00, 0xfa, 0x44, 0x00, 0xfa, 0x0d, 0x00, 0xfa, 0x26, 0x00, 0xfa, 0x35, 0x00})
	long := []byte{3}
	for e := 0; e < 40; e++ {
		long = append(long, 0xfa, byte(e)<<3|3, byte(e+1)<<3|4, byte(e+2)<<3|5, byte(e)<<3|6, 0x00)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		r := NewK(1+int(ops[0]%12), DefaultPingPongK)
		r.SetTracer(telemetry.New())
		pages := [6]core.PageKey{key(2, 0x30), key(1, 0x10), key(2, 0x10), key(1, 0x30), key(1, 0x20), key(3, 0x01)}
		epoch := 0
		r.BeginEpoch(epoch, core.MethodCombined, core.MethodCombined, 0)
		for i, op := range ops[1:] {
			v := int(op >> 3)
			pg := pages[v%len(pages)]
			switch op & 7 {
			case 0, 1:
				// Close the epoch and open the next, degraded on odd
				// payloads, sometimes skipping epochs.
				r.FinishEpoch()
				epoch += 1 + v%3
				eff := core.MethodCombined
				if v%2 == 1 {
					eff = core.MethodAbit
				}
				r.BeginEpoch(epoch, eff, core.MethodCombined, uint64(v%4))
			case 2:
				// Harvest the pages whose bits the payload sets.
				var ep core.EpochStats
				for j, k := range pages[:5] {
					if v&(1<<j) != 0 {
						ep.Pages = append(ep.Pages, core.PageStat{Key: k,
							Evidence: mem.Evidence{Abit: uint32(i + j), Trace: uint32(v), Dev: uint32(j)},
							Tier:     mem.TierID(j % 2)})
					}
				}
				ep.Epoch = epoch
				r.ObserveHarvest(ep, func(k core.PageKey) bool { return k.VPN == 0x10 })
			case 3:
				r.NoteMove(pg, v%2 == 0, mem.TierID(v%3))
			case 4:
				r.Note(pg, VerdictFailed, FailReason(v%6))
			case 5:
				r.Note(pg, VerdictDeferred, FailNone)
			case 6:
				queued := [...]Verdict{VerdictDeferredAdmission, VerdictRejectedAdmission, VerdictSuperseded}
				r.Note(pg, queued[v%3], FailNone)
			default:
				// A failure queued for retry: the deferral carries the
				// reason that queued it.
				r.Note(pg, VerdictDeferred, FailCopyAbort)
			}
		}
		r.FinishEpoch()
		want := refSnapshot(r, "fuzz")
		got := r.Snapshot("fuzz")
		if got.Schema != want.Schema || got.Label != want.Label || got.LastK != want.LastK || got.PingPongK != want.PingPongK {
			t.Fatalf("header = %d %q %d %d, want %d %q %d %d", got.Schema, got.Label, got.LastK, got.PingPongK,
				want.Schema, want.Label, want.LastK, want.PingPongK)
		}
		if len(got.Pages) != len(want.Pages) {
			t.Fatalf("%d pages, want %d", len(got.Pages), len(want.Pages))
		}
		for i := range want.Pages {
			g, w := &got.Pages[i], &want.Pages[i]
			if g.Key != w.Key || g.Flips != w.Flips || g.Dropped != w.Dropped || len(g.Records) != len(w.Records) {
				t.Fatalf("page %d: key %v flips %d dropped %d records %d, want %v %d %d %d",
					i, g.Key, g.Flips, g.Dropped, len(g.Records), w.Key, w.Flips, w.Dropped, len(w.Records))
			}
			for j := range w.Records {
				if g.Records[j] != w.Records[j] {
					t.Fatalf("page %v record %d: %+v, want %+v", w.Key, j, g.Records[j], w.Records[j])
				}
			}
		}
	})
}
