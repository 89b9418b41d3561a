package provenance

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/mem"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/testalloc"
)

func key(pid int, vpn uint64) core.PageKey {
	return core.PageKey{PID: pid, VPN: mem.VPN(vpn)}
}

// harvest runs one epoch through the recorder with a single-page
// evidence vector, leaving the epoch open for mover notes.
func harvest(r *Recorder, epoch int, ps core.PageStat, selected bool) {
	r.BeginEpoch(epoch, core.MethodCombined, core.MethodCombined, 0)
	r.ObserveHarvest(core.EpochStats{Epoch: epoch, Pages: []core.PageStat{ps}},
		func(core.PageKey) bool { return selected })
}

// TestNilRecorderNoOps pins the detached state: every method on a nil
// recorder is callable and allocation-free, so the mover and placement
// loop wire the hooks unconditionally.
func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	ep := core.EpochStats{Epoch: 0, Pages: []core.PageStat{{Key: key(1, 2), Evidence: mem.Evidence{Abit: 1}}}}
	op := func() {
		r.SetTracer(nil)
		r.BeginEpoch(0, core.MethodCombined, core.MethodCombined, 0)
		r.ObserveHarvest(ep, nil)
		r.NoteMove(key(1, 2), true, 0)
		r.Note(key(1, 2), VerdictFailed, FailCapacity)
		r.Note(key(1, 2), VerdictDeferred, FailNone)
		r.Note(key(1, 2), VerdictSuperseded, FailNone)
		r.FinishEpoch()
		_ = r.Pages()
	}
	// One run of many calls, read as a total (TestAllocsPinsTakeOneRun).
	const calls = 100
	allocs := testalloc.Count(func() {
		for range calls {
			op()
		}
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %v times in %d calls; the detached state must be free", allocs, calls)
	}
}

// TestVerdictAssignment pins the held-verdict taxonomy FinishEpoch
// applies to pages with no mover outcome.
func TestVerdictAssignment(t *testing.T) {
	r := New()

	// Selected + in the fast tier ⇒ held:resident.
	harvest(r, 0, core.PageStat{Key: key(1, 1), Evidence: mem.Evidence{Abit: 3}, Tier: mem.FastTier}, true)
	r.FinishEpoch()
	// Selected + slow tier, mover silent ⇒ held.
	harvest(r, 1, core.PageStat{Key: key(1, 1), Evidence: mem.Evidence{Abit: 3}, Tier: 1}, true)
	r.FinishEpoch()
	// Not selected ⇒ held:below-topk.
	harvest(r, 2, core.PageStat{Key: key(1, 1), Evidence: mem.Evidence{Abit: 1}, Tier: 1}, false)
	r.FinishEpoch()
	// Not selected under quarantine degradation ⇒ held:quarantine-degraded.
	r.BeginEpoch(3, core.MethodAbit, core.MethodCombined, 0)
	r.ObserveHarvest(core.EpochStats{Epoch: 3, Pages: []core.PageStat{{Key: key(1, 1), Evidence: mem.Evidence{Abit: 1}, Tier: 1}}}, nil)
	r.FinishEpoch()
	// Selected but below the promotion gate ⇒ held:below-minrank.
	r.BeginEpoch(4, core.MethodCombined, core.MethodCombined, 100)
	r.ObserveHarvest(core.EpochStats{Epoch: 4, Pages: []core.PageStat{{Key: key(1, 1), Evidence: mem.Evidence{Abit: 2}, Tier: 1}}},
		func(core.PageKey) bool { return true })
	r.FinishEpoch()

	lg := r.Snapshot("t")
	if len(lg.Pages) != 1 {
		t.Fatalf("pages = %d, want 1", len(lg.Pages))
	}
	want := []string{"held:resident", "held", "held:below-topk", "held:quarantine-degraded", "held:below-minrank"}
	recs := lg.Pages[0].Records
	if len(recs) != len(want) {
		t.Fatalf("records = %d, want %d", len(recs), len(want))
	}
	for i, w := range want {
		if got := recs[i].Verdict.Reason(recs[i].Fail); got != w {
			t.Errorf("epoch %d verdict = %q, want %q", i, got, w)
		}
	}
	if !recs[3].Degraded || recs[3].Method != core.MethodAbit {
		t.Errorf("degraded epoch record = %+v, want Degraded with effective method abit", recs[3])
	}
}

// TestVerdictPrecedence pins refinement: a failure can be upgraded to
// deferred, and a success is never downgraded by later notes.
func TestVerdictPrecedence(t *testing.T) {
	r := New()
	k := key(7, 0x40)

	harvest(r, 0, core.PageStat{Key: k, Evidence: mem.Evidence{Abit: 5}, Tier: 1}, true)
	r.Note(k, VerdictFailed, FailCapacity)
	r.Note(k, VerdictDeferred, FailNone)
	r.FinishEpoch()

	harvest(r, 1, core.PageStat{Key: k, Evidence: mem.Evidence{Abit: 5}, Tier: 1}, true)
	r.NoteMove(k, true, 0)
	r.Note(k, VerdictFailed, FailPinned) // late failure note must not downgrade
	r.FinishEpoch()

	recs := r.Snapshot("t").Pages[0].Records
	if got := recs[0].Verdict.Reason(recs[0].Fail); got != "deferred:retry-backoff" {
		t.Errorf("epoch 0 = %q, want deferred:retry-backoff", got)
	}
	if recs[0].Fail != FailCapacity {
		t.Errorf("deferred record lost its failure reason: %v", recs[0].Fail)
	}
	if got := recs[1].Verdict.Reason(recs[1].Fail); got != "promoted" {
		t.Errorf("epoch 1 = %q, want promoted", got)
	}
	if recs[1].From != 1 || recs[1].To != 0 {
		t.Errorf("move = %d->%d, want 1->0", recs[1].From, recs[1].To)
	}
}

// TestRingEviction pins the bounded last-K ring: old records drop,
// Dropped counts them, and survivors come out oldest-first.
func TestRingEviction(t *testing.T) {
	r := NewK(3, 4)
	k := key(1, 0x10)
	for e := 0; e < 7; e++ {
		harvest(r, e, core.PageStat{Key: k, Evidence: mem.Evidence{Abit: uint32(e)}, Tier: 1}, false)
		r.FinishEpoch()
	}
	pg := r.Snapshot("t").Pages[0]
	if pg.Dropped != 4 {
		t.Errorf("Dropped = %d, want 4", pg.Dropped)
	}
	if len(pg.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(pg.Records))
	}
	for i, wantEpoch := range []int32{4, 5, 6} {
		if pg.Records[i].Epoch != wantEpoch {
			t.Errorf("record %d epoch = %d, want %d", i, pg.Records[i].Epoch, wantEpoch)
		}
	}
}

// TestPingPongDetection pins the pathology counter: promote→demote
// within the window is a flip; a slower reversal is not.
func TestPingPongDetection(t *testing.T) {
	tr := telemetry.New()
	r := NewK(8, 2)
	r.SetTracer(tr)
	k := key(1, 0x20)

	harvest(r, 0, core.PageStat{Key: k, Evidence: mem.Evidence{Abit: 9}, Tier: 1}, true)
	r.NoteMove(k, true, 0)
	r.FinishEpoch()
	harvest(r, 2, core.PageStat{Key: k, Evidence: mem.Evidence{Abit: 0}, Tier: 0}, false)
	r.NoteMove(k, false, 1) // gap 2 ≤ window 2: flip
	r.FinishEpoch()
	harvest(r, 3, core.PageStat{Key: k, Evidence: mem.Evidence{Abit: 9}, Tier: 1}, true)
	r.NoteMove(k, true, 0)
	r.FinishEpoch()
	harvest(r, 9, core.PageStat{Key: k, Evidence: mem.Evidence{Abit: 0}, Tier: 0}, false)
	r.NoteMove(k, false, 1) // gap 6 > window: not a flip
	r.FinishEpoch()

	if got := tr.Counter("mover/pingpong").Value(); got != 1 {
		t.Errorf("mover/pingpong = %d, want 1", got)
	}
	pg := r.Snapshot("t").Pages[0]
	if pg.Flips != 1 {
		t.Errorf("Flips = %d, want 1", pg.Flips)
	}
	gap := tr.Histogram("mover/pingpong_gap_epochs")
	if gap.Count() != 1 || gap.Max() != 2 {
		t.Errorf("gap hist count=%d max=%d, want 1/2", gap.Count(), gap.Max())
	}
}

// TestResidencyHistogram pins time-in-tier: a move observes the length
// of the stay it ended, in the histogram of the tier being left.
func TestResidencyHistogram(t *testing.T) {
	tr := telemetry.New()
	r := New()
	r.SetTracer(tr)
	k := key(1, 0x30)

	harvest(r, 0, core.PageStat{Key: k, Evidence: mem.Evidence{Abit: 1}, Tier: 1}, true)
	r.FinishEpoch()
	harvest(r, 5, core.PageStat{Key: k, Evidence: mem.Evidence{Abit: 9}, Tier: 1}, true)
	r.NoteMove(k, true, 0) // leaves tier 1 after 5 epochs
	r.FinishEpoch()

	h := tr.Histogram("mover/residency_epochs_t1")
	if h.Count() != 1 || h.Max() != 5 {
		t.Errorf("t1 residency count=%d max=%d, want 1/5", h.Count(), h.Max())
	}
	if tr.Histogram("mover/residency_epochs_t0").Count() != 0 {
		t.Errorf("t0 residency observed without leaving tier 0")
	}
}

// TestRankChurn pins the churn metric: entries plus exits of the
// selected set, relative to the previous epoch.
func TestRankChurn(t *testing.T) {
	tr := telemetry.New()
	r := New()
	r.SetTracer(tr)
	a, b, c := key(1, 1), key(1, 2), key(1, 3)
	pages := func(sel ...core.PageKey) (core.EpochStats, func(core.PageKey) bool) {
		st := core.EpochStats{Pages: []core.PageStat{
			{Key: a, Evidence: mem.Evidence{Abit: 3}, Tier: 1}, {Key: b, Evidence: mem.Evidence{Abit: 2}, Tier: 1}, {Key: c, Evidence: mem.Evidence{Abit: 1}, Tier: 1},
		}}
		return st, func(k core.PageKey) bool {
			for _, s := range sel {
				if s == k {
					return true
				}
			}
			return false
		}
	}

	st, sel := pages(a, b)
	r.BeginEpoch(0, core.MethodCombined, core.MethodCombined, 0)
	r.ObserveHarvest(st, sel)
	r.FinishEpoch() // churn 2: {a,b} enter

	st, sel = pages(a, c)
	r.BeginEpoch(1, core.MethodCombined, core.MethodCombined, 0)
	r.ObserveHarvest(st, sel)
	r.FinishEpoch() // churn 2: c enters, b leaves

	st, sel = pages(a, c)
	r.BeginEpoch(2, core.MethodCombined, core.MethodCombined, 0)
	r.ObserveHarvest(st, sel)
	r.FinishEpoch() // churn 0: stable

	h := tr.Histogram("sim/rank_churn")
	if h.Count() != 3 {
		t.Fatalf("churn observations = %d, want 3", h.Count())
	}
	if h.Max() != 2 {
		t.Errorf("churn max = %d, want 2", h.Max())
	}
	if h.Bucket(0) != 1 {
		t.Errorf("stable epoch did not observe churn 0 (bucket0 = %d)", h.Bucket(0))
	}
}

// TestRankPosition pins Pos: the page's index in the canonical fused
// ranking, -1 for rank-zero pages.
func TestRankPosition(t *testing.T) {
	r := New()
	st := core.EpochStats{Pages: []core.PageStat{
		{Key: key(1, 1), Evidence: mem.Evidence{Abit: 1}, Tier: 1},
		{Key: key(1, 2), Evidence: mem.Evidence{Abit: 9}, Tier: 1},
		{Key: key(1, 3), Tier: 1}, // rank 0: unranked
	}}
	r.BeginEpoch(0, core.MethodCombined, core.MethodCombined, 0)
	r.ObserveHarvest(st, nil)
	r.FinishEpoch()

	lg := r.Snapshot("t")
	pos := map[uint64]int32{}
	for _, pg := range lg.Pages {
		pos[uint64(pg.Key.VPN)] = pg.Records[0].Pos
	}
	if pos[2] != 0 || pos[1] != 1 || pos[3] != -1 {
		t.Errorf("positions = %v, want vpn2:0 vpn1:1 vpn3:-1", pos)
	}
}

// TestLogRoundTrip pins the serialization: WriteLog then ReadLog
// reproduces the snapshot, and a second write is byte-identical.
func TestLogRoundTrip(t *testing.T) {
	r := New()
	k1, k2 := key(2, 0x100), key(1, 0x200)
	harvest(r, 0, core.PageStat{Key: k1, Evidence: mem.Evidence{Abit: 3, Trace: 1}, Tier: 1}, true)
	r.Note(k1, VerdictFailed, FailCapacity)
	r.Note(k1, VerdictDeferred, FailNone)
	r.FinishEpoch()
	r.BeginEpoch(1, core.MethodAbit, core.MethodCombined, 0)
	r.ObserveHarvest(core.EpochStats{Epoch: 1, Pages: []core.PageStat{
		{Key: k1, Evidence: mem.Evidence{Abit: 4}, Tier: 1}, {Key: k2, Evidence: mem.Evidence{Dev: 2}, Tier: 2},
	}}, func(k core.PageKey) bool { return k == k1 })
	r.NoteMove(k1, true, 0)
	r.FinishEpoch()

	logs := []Log{r.Snapshot("gups/tmp")}
	var buf bytes.Buffer
	if err := WriteLog(&buf, logs); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	first := buf.String()

	got, err := ReadLog(strings.NewReader(first))
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(got) != 1 || got[0].Label != "gups/tmp" || got[0].LastK != DefaultLastK {
		t.Fatalf("read back %+v", got)
	}
	// Pages come out in canonical (PID, VPN) order: k2 (pid 1) first.
	if got[0].Pages[0].Key != k2 || got[0].Pages[1].Key != k1 {
		t.Fatalf("page order = %v, %v", got[0].Pages[0].Key, got[0].Pages[1].Key)
	}
	var buf2 bytes.Buffer
	if err := WriteLog(&buf2, got); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if buf2.String() != first {
		t.Errorf("round-trip not byte-identical:\nfirst:\n%s\nsecond:\n%s", first, buf2.String())
	}

	// Reader-side schema check: a bumped schema must be rejected.
	schema := fmt.Sprintf(`"schema":%d`, telemetry.SchemaVersion)
	bad := strings.Replace(first, schema, fmt.Sprintf(`"schema":%d`, telemetry.SchemaVersion+1), 1)
	if bad == first {
		t.Fatalf("log has no %s", schema)
	}
	if _, err := ReadLog(strings.NewReader(bad)); err == nil {
		t.Error("ReadLog accepted a mismatched schema version")
	}
}

// TestRenderTables sanity-checks the audit tables over a run with a
// fault, a flip, and a promotion.
func TestRenderTables(t *testing.T) {
	r := NewK(8, 4)
	k := key(3, 0xabc)
	harvest(r, 0, core.PageStat{Key: k, Evidence: mem.Evidence{Abit: 7, Trace: 2}, Tier: 1}, true)
	r.NoteMove(k, true, 0)
	r.FinishEpoch()
	harvest(r, 1, core.PageStat{Key: k, Tier: 0}, false)
	r.NoteMove(k, false, 1)
	r.FinishEpoch()
	lg := r.Snapshot("run")

	tl := TimelineTable(&lg.Pages[0]).Render()
	for _, want := range []string{"pid=3 vpn=0xabc", "promoted", "demoted", "1->0", "0->1"} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q:\n%s", want, tl)
		}
	}
	pp := PingPongTable(&lg, 10).Render()
	if !strings.Contains(pp, "0xabc") {
		t.Errorf("ping-pong table missing the flipped page:\n%s", pp)
	}
	de := DecisiveTable(&lg).Render()
	if !strings.Contains(de, "abit") || !strings.Contains(de, "100.0%") {
		t.Errorf("decisive table: abit should carry the single promotion:\n%s", de)
	}
	sm := SummaryTable(&lg).Render()
	if !strings.Contains(sm, "promoted") || !strings.Contains(sm, "demoted") {
		t.Errorf("summary missing verdicts:\n%s", sm)
	}
}

// TestReasonRoundTrip pins the verdict-reason taxonomy: every verdict
// string maps back to the verdict that produced it.
func TestReasonRoundTrip(t *testing.T) {
	fails := []FailReason{FailNone, FailCapacity, FailPinned, FailSplit, FailVanished, FailCopyAbort}
	for v := VerdictNone; v <= VerdictRejectedAdmission; v++ {
		for _, f := range fails {
			if v != VerdictFailed && f != FailNone {
				continue
			}
			s := v.Reason(f)
			gv, gf, ok := verdictFromReason(s)
			if !ok || gv != v || gf != f {
				t.Errorf("reason %q → (%d,%d), want (%d,%d)", s, gv, gf, v, f)
			}
		}
	}
}
