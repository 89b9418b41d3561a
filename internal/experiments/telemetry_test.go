package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"tieredmem/internal/telemetry"
)

// traceDump renders a traced suite run's full telemetry exports (JSONL
// then Chrome trace) as one byte stream for equality comparison.
func traceDump(t *testing.T, parallel int) []byte {
	t.Helper()
	opts := parallelTestOptions(parallel, "gups", "data-caching")
	opts.Trace = true
	s := NewSuite(opts)
	if _, err := EpochSweep(s, []int{1, 2}); err != nil {
		t.Fatalf("EpochSweep(parallel=%d): %v", parallel, err)
	}
	runs := s.Traces()
	if len(runs) == 0 {
		t.Fatalf("traced suite (parallel=%d) captured no telemetry runs", parallel)
	}
	for _, r := range runs {
		if w := r.Tracer.Events(); !w.Next() {
			t.Fatalf("run %s recorded no events", r.Label)
		}
	}
	var b bytes.Buffer
	if err := telemetry.WriteJSONL(&b, runs); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	var chrome bytes.Buffer
	if err := telemetry.WriteChromeTrace(&chrome, runs); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !json.Valid(chrome.Bytes()) {
		t.Fatalf("chrome trace is not valid JSON (parallel=%d)", parallel)
	}
	b.Write(chrome.Bytes())
	return b.Bytes()
}

// TestTelemetryParallelByteIdentity is the concurrency half of the
// telemetry determinism contract: the exported event stream from a
// traced suite must be byte-identical at -parallel 1 and -parallel 8.
// Capture tracers are private per cell and exports order runs by
// sorted cache key, so worker scheduling must not be observable.
func TestTelemetryParallelByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling runs are slow")
	}
	seq := traceDump(t, 1)
	par := traceDump(t, 8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("telemetry exports differ between -parallel 1 and -parallel 8: %d vs %d bytes", len(seq), len(par))
	}
}

// TestTraceOffByDefault guards the zero-overhead default: without
// Options.Trace the suite holds no tracers and Traces is empty.
func TestTraceOffByDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling runs are slow")
	}
	opts := parallelTestOptions(1, "gups")
	opts.Refs = 200_000
	s := NewSuite(opts)
	if _, err := EpochSweep(s, []int{1}); err != nil {
		t.Fatalf("EpochSweep: %v", err)
	}
	if n := len(s.Traces()); n != 0 {
		t.Fatalf("untraced suite exposes %d telemetry runs, want 0", n)
	}
}
