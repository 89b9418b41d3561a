package provenance_test

// External test package so the probe may build a real simulation
// (internal/sim imports internal/provenance, so an internal test
// would cycle).

import (
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/mem"
	"tieredmem/internal/provenance"
	"tieredmem/internal/sim"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/testalloc"
	"tieredmem/internal/trace"
	"tieredmem/internal/workload"
)

// TestDetachedRecorderHarvestAllocs pins the observability-off cost of
// the flight recorder at zero: the steady-state epoch loop — harvest
// into recycled scratch plus every recorder hook the placement path
// calls — must not allocate when the recorder is detached (nil). This
// is the same harvest loop BenchmarkHarvestSteadyState times and
// harvestAllocsPerOp (internal/runner) pins without the recorder.
func TestDetachedRecorderHarvestAllocs(t *testing.T) {
	r := probeRunner(t)
	var rec *provenance.Recorder // detached, as in every un-audited run
	var ep core.EpochStats
	r.Profiler.HarvestEpochInto(&ep) // grow the scratch once
	key := core.PageKey{PID: 100, VPN: 1}
	// One run of 100 epochs, read as a total (TestAllocsPinsTakeOneRun).
	allocs := testalloc.Count(func() {
		for range 100 {
			r.Machine.Phys.ForEachAllocated(func(_ mem.PFN, pd *mem.PageDescriptor) { pd.Epoch.Abit = 1 })
			r.Profiler.HarvestEpochInto(&ep)
			if rec.Enabled() {
				t.Fatal("nil recorder claims to be enabled")
			}
			rec.BeginEpoch(1, core.MethodCombined, core.MethodCombined, 0)
			rec.ObserveHarvest(ep, func(core.PageKey) bool { return false })
			rec.NoteMove(key, true, mem.FastTier)
			rec.FinishEpoch()
		}
	})
	if allocs != 0 {
		t.Errorf("100 steady-state harvests with a detached recorder allocate %v times, want 0", allocs)
	}
}

// TestAttachedRecorderEpochAllocs pins the observability-on cost of the
// flight recorder's steady state at zero too: once its columns and
// scratch cover the working set, an epoch of harvest, BeginEpoch,
// ObserveHarvest (rank positions included), NoteMove and FinishEpoch
// allocates nothing, with a tracer feeding the recorder's histograms.
// Recording costs memory in proportion to the pages kept, not to the
// epochs run.
func TestAttachedRecorderEpochAllocs(t *testing.T) {
	r := probeRunner(t)
	rec := provenance.New()
	rec.SetTracer(telemetry.New())
	var ep core.EpochStats
	selected := func(k core.PageKey) bool { return k.VPN%4 == 0 }
	epoch := 0
	step := func() {
		r.Machine.Phys.ForEachAllocated(func(_ mem.PFN, pd *mem.PageDescriptor) { pd.Epoch.Abit = 1 })
		r.Profiler.HarvestEpochInto(&ep)
		rec.BeginEpoch(epoch, core.MethodCombined, core.MethodCombined, 0)
		rec.ObserveHarvest(ep, selected)
		rec.NoteMove(ep.Pages[0].Key, epoch%2 == 0, mem.TierID(epoch%2))
		rec.FinishEpoch()
		epoch++
	}
	step() // grow the harvest scratch and the recorder's columns once
	step()
	allocs := testalloc.Count(func() {
		for range 100 {
			step()
		}
	})
	if allocs != 0 {
		t.Errorf("100 steady-state epochs with an attached recorder allocate %v times, want 0", allocs)
	}
}

// probeRunner builds a small GUPS machine and executes one batch, so
// a harvest has pages to report.
func probeRunner(t *testing.T) *sim.Runner {
	t.Helper()
	w := workload.MustNew("gups", workload.Config{Seed: 2, FirstPID: 100})
	r, err := sim.New(sim.DefaultConfig(w, 4096, 1), w)
	if err != nil {
		t.Fatalf("harvest allocs probe: %v", err)
	}
	buf := make([]trace.Ref, 4096)
	w.Fill(buf)
	for j := range buf {
		if _, err := r.Machine.Execute(buf[j]); err != nil {
			t.Fatalf("harvest allocs probe: %v", err)
		}
	}
	return r
}
