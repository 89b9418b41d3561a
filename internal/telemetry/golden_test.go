package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tieredmem/internal/report"
)

// update rewrites the goldens instead of comparing against them:
//
//	go test ./internal/telemetry -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata goldens")

// checkGolden compares got against testdata/<name>.golden, rewriting
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden.\ngot:\n%s\nwant:\n%s\n(run `go test ./internal/telemetry -run Golden -update` if the change is intended)",
			name, got, string(want))
	}
}

// fixtureTracer replays one small deterministic run exercising every
// event kind, counter deltas across two epoch cuts, and a second
// labeled run for the multi-run export shapes.
func fixtureTracer() *Tracer {
	tr := New()
	alloc := tr.Counter("mem/alloc_frames")
	alloc.Add(128)
	tr.Counter("mem/alloc_huge").Add(2)
	tr.EmitDaemonTick(1_000, 50)
	tr.Counter("daemon/ticks").Add(1)
	tr.Counter("daemon/tick_ns").AddNS(50)
	tr.EmitAbitScan(1_500, 400, 512, 37, 2)
	tr.Counter("abit/overhead_ns").AddNS(400)
	tr.EmitIBSDrain(1_800, 120, 3, 1)
	tr.Counter("ibs/overhead_ns").AddNS(120)
	tr.EmitGate(2_000, "llc_miss", false, 10, 100, 2000)
	tr.EmitMigration(2_500, 101, 0x2000, true)
	tr.EmitShootdown(2_600, 900, 1)
	tr.Counter("mover/overhead_ns").AddNS(900)
	tr.EmitFilter(2_700, 1, 2)
	tr.CutEpoch(3_000, 5)
	alloc.Add(7)
	tr.EmitDaemonTick(3_500, 25)
	tr.EmitGate(3_600, "llc_miss", true, 90, 100, 2000)
	tr.CutEpoch(4_000, 2)
	inter := tr.Histogram("mover/interarrival_ns")
	inter.Observe(100)
	inter.Observe(500)
	inter.Observe(1_000)
	tr.Histogram("mover/residency_epochs_t0").ObserveN(3, 2)
	// Registered but never observed: must not appear in any export.
	tr.Histogram("sim/rank_churn")
	return tr
}

func fixtureRuns() []Labeled {
	second := New()
	second.Counter("mem/alloc_frames").Add(16)
	second.EmitAbitScan(700, 80, 64, 9, 0)
	second.CutEpoch(1_000, 9)
	return []Labeled{
		{Label: "gups@4x", Tracer: fixtureTracer()},
		{Label: "xsbench@4x", Tracer: second},
	}
}

func TestGoldenJSONL(t *testing.T) {
	var b bytes.Buffer
	if err := WriteJSONL(&b, fixtureRuns()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got := b.String()
	// Every line must be standalone valid JSON: the format contract
	// that makes the log greppable and jq-able.
	runs := 0
	for i, line := range bytes.Split(b.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if !json.Valid(line) {
			t.Errorf("line %d is not valid JSON: %s", i+1, line)
		}
		// Reader-side schema check: every run header must announce the
		// schema version a consumer should expect.
		var hdr struct {
			Type   string `json:"type"`
			Schema int    `json:"schema"`
		}
		if err := json.Unmarshal(line, &hdr); err == nil && hdr.Type == "run" {
			runs++
			if hdr.Schema != SchemaVersion {
				t.Errorf("line %d: run header schema = %d, want %d", i+1, hdr.Schema, SchemaVersion)
			}
		}
	}
	if runs != 2 {
		t.Errorf("found %d run headers, want 2", runs)
	}
	checkGolden(t, "events_jsonl", got)
}

// chunkWriter records the size of every write it receives.
type chunkWriter struct {
	buf   bytes.Buffer
	sizes []int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.buf.Write(p)
}

// TestWriteJSONLStreams: a long run reaches the writer in chunks of
// about 64 KiB, not in one write of the whole run, and the chunks join
// into one line per event plus the run header.
func TestWriteJSONLStreams(t *testing.T) {
	const ticks = 5000
	tr := New()
	for i := int64(0); i < ticks; i++ {
		tr.EmitDaemonTick(i*1_000, 50)
	}
	var w chunkWriter
	if err := WriteJSONL(&w, []Labeled{{Label: "long", Tracer: tr}}); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if len(w.sizes) < 2 {
		t.Errorf("a %d-byte log arrived in %d write(s), want 64 KiB chunks", w.buf.Len(), len(w.sizes))
	}
	for i, n := range w.sizes {
		if n > 1<<16+1<<10 {
			t.Errorf("write %d is %d bytes, want at most 64 KiB plus one line", i, n)
		}
	}
	if lines := bytes.Count(w.buf.Bytes(), []byte("\n")); lines != ticks+1 {
		t.Errorf("log has %d lines, want %d", lines, ticks+1)
	}
}

// TestWriteChromeTraceStreams: a long run's trace reaches the writer
// in chunks of about 64 KiB, like the event log, and the chunks join
// into one valid document holding every event.
func TestWriteChromeTraceStreams(t *testing.T) {
	const ticks = 5000
	tr := New()
	for i := int64(0); i < ticks; i++ {
		tr.EmitDaemonTick(i*1_000, 50)
	}
	var w chunkWriter
	if err := WriteChromeTrace(&w, []Labeled{{Label: "long", Tracer: tr}}); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if len(w.sizes) < 2 {
		t.Errorf("a %d-byte trace arrived in %d write(s), want 64 KiB chunks", w.buf.Len(), len(w.sizes))
	}
	for i, n := range w.sizes {
		if n > 1<<16+1<<10 {
			t.Errorf("write %d is %d bytes, want at most 64 KiB plus one event", i, n)
		}
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.buf.Bytes(), &doc); err != nil {
		t.Fatalf("streamed trace is not valid JSON: %v", err)
	}
	// One process name, plus one thread name and sort index for the
	// daemon track.
	if n := len(doc.TraceEvents); n != ticks+3 {
		t.Errorf("trace has %d events, want %d", n, ticks+3)
	}
}

func TestGoldenChromeTrace(t *testing.T) {
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, fixtureRuns()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("chrome trace is not valid JSON:\n%s", b.String())
	}
	// trace_viewer / Perfetto load the traceEvents array; require the
	// documented envelope rather than trusting the golden alone.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	checkGolden(t, "chrome_trace", b.String())
}

func TestGoldenAttributionTable(t *testing.T) {
	tr := fixtureTracer()
	rows := tr.Attribution(4_000, 4)
	checkGolden(t, "attribution_table",
		report.AttributionTable("Fixture attribution", rows).Render())
}

func TestGoldenDistTable(t *testing.T) {
	rows := fixtureTracer().Distributions()
	if len(rows) == 0 {
		t.Fatal("fixture has no distributions")
	}
	for _, r := range rows {
		if r.Name == "sim/rank_churn" {
			t.Error("empty histogram rendered a distribution row")
		}
	}
	checkGolden(t, "dist_table",
		report.DistTable("Fixture distributions", rows).Render())
}

func TestGoldenAttributionNoDenominator(t *testing.T) {
	rows := fixtureTracer().Attribution(0, 0)
	checkGolden(t, "attribution_na",
		report.AttributionTable("Fixture attribution (no cores)", rows).Render())
}
