package sim

import (
	"testing"

	"tieredmem/internal/telemetry"
	"tieredmem/internal/workload"
)

// runOnceTraced is runOnce with a live tracer attached; the returned
// tracer holds whatever the run emitted.
func runOnceTraced(t *testing.T, seed int64) (Result, *telemetry.Tracer) {
	t.Helper()
	w := workload.MustNew("gups", workload.Config{Seed: seed, FirstPID: 100, ScaleShift: 0})
	cfg := DefaultConfig(w, 16384, 400_000)
	tr := telemetry.New()
	cfg.Tracer = tr
	r, err := New(cfg, w)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, tr
}

// TestTelemetryInert is the observation-must-not-perturb gate: a run
// with telemetry enabled must produce byte-identical ranked-page
// output to the same seed with telemetry off. If this fails, an emit
// site is feeding back into simulation state (clock, RNG, ordering).
func TestTelemetryInert(t *testing.T) {
	plain := rankDump(runOnce(t, 42))
	tracedRes, tr := runOnceTraced(t, 42)
	traced := rankDump(tracedRes)
	if plain != traced {
		t.Fatalf("enabling telemetry changed the ranked-page output:\nplain:\n%s\ntraced:\n%s",
			head(plain, 30), head(traced, 30))
	}
	// Guard against a vacuous pass where the tracer never saw the run.
	if w := tr.Events(); !w.Next() {
		t.Fatal("traced run recorded no events; telemetry is not wired")
	}
	if len(tr.EpochCuts()) == 0 {
		t.Fatal("traced run recorded no epoch cuts")
	}
	if tr.Registry().Counter("daemon/ticks").Value() == 0 {
		t.Error("daemon/ticks counter never advanced")
	}
	if tr.Registry().Counter("abit/scans").Value() == 0 {
		t.Error("abit/scans counter never advanced")
	}
}

// TestTelemetryVirtualStamps checks the stamp discipline on a real
// run: every event timestamp is within the run's virtual-time span and
// the stream is time-ordered, which is what makes the exported trace a
// virtual-time flamegraph rather than a host profile.
func TestTelemetryVirtualStamps(t *testing.T) {
	res, tr := runOnceTraced(t, 42)
	var prev int64
	for i, w := 0, tr.Events(); w.Next(); i++ {
		ev := w.Event()
		if ev.Now < 0 || ev.Now > res.DurationNS {
			t.Fatalf("event %d (%s) stamped %d, outside virtual span [0,%d]", i, ev.Kind, ev.Now, res.DurationNS)
		}
		if ev.Now < prev {
			t.Fatalf("event %d (%s) stamped %d before predecessor at %d; stream must be time-ordered", i, ev.Kind, ev.Now, prev)
		}
		prev = ev.Now
	}
}
