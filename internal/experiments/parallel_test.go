package experiments

import (
	"sync/atomic"
	"testing"

	"tieredmem/internal/fault"
	"tieredmem/internal/runner"
)

// parallelTestOptions shrinks runs so the equivalence sweeps stay
// fast while still crossing several epochs per workload.
func parallelTestOptions(parallel int, workloads ...string) Options {
	o := DefaultOptions()
	o.Refs = 400_000
	o.Workloads = workloads
	o.Parallel = parallel
	return o
}

// TestParallelEqualsSequentialMethods is the concurrency half of the
// determinism contract (the sequential half lives in
// internal/sim/determinism_test.go): the methods experiment rendered
// at -parallel 1 and -parallel 8 from the same seed must be
// byte-for-byte identical, because every cell is a pure function of
// its seed+config and the runner reassembles rows in submission
// order.
func TestParallelEqualsSequentialMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling runs are slow")
	}
	render := func(parallel int) string {
		rows, err := MethodsComparison(parallelTestOptions(parallel, "gups", "web-serving"))
		if err != nil {
			t.Fatalf("MethodsComparison(parallel=%d): %v", parallel, err)
		}
		return RenderMethods(rows)
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("methods output differs between -parallel 1 and -parallel 8:\nsequential:\n%s\nparallel:\n%s", seq, par)
	}
	// Unlike the renderer fixtures, this golden pins simulation output:
	// the AutoNUMA and BadgerTrap rows are the only results of the
	// work-horizon raw run, and no other test reads their values.
	checkGolden(t, "methods_sim", seq)
}

// TestParallelEqualsSequentialEpochSweep covers the Suite-backed path:
// concurrent cells deduplicate onto shared Profile calls through the
// suite cache, and the rendered sweep must not move a byte.
func TestParallelEqualsSequentialEpochSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling runs are slow")
	}
	render := func(parallel int) string {
		s := NewSuite(parallelTestOptions(parallel, "gups", "data-caching"))
		rows, err := EpochSweep(s, []int{1, 2, 4})
		if err != nil {
			t.Fatalf("EpochSweep(parallel=%d): %v", parallel, err)
		}
		return RenderEpochSweep(rows)
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("epochsweep output differs between -parallel 1 and -parallel 8:\nsequential:\n%s\nparallel:\n%s", seq, par)
	}
}

// TestParallelEqualsSequentialOverhead sweeps the finest-grained cell
// decomposition (5 configurations x workloads) through both paths.
func TestParallelEqualsSequentialOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling runs are slow")
	}
	render := func(parallel int) string {
		rows, err := Overhead(parallelTestOptions(parallel, "gups", "web-serving"))
		if err != nil {
			t.Fatalf("Overhead(parallel=%d): %v", parallel, err)
		}
		return RenderOverhead(rows)
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("overhead output differs between -parallel 1 and -parallel 8:\nsequential:\n%s\nparallel:\n%s", seq, par)
	}
}

// TestParallelEqualsSequentialFaulted extends the width-equivalence
// contract to chaos runs: every cell builds a private fault plane from
// the shared (spec, seed), so injection sequences — and therefore
// failed migrations, retries, and quarantines — cannot depend on pool
// width or cell scheduling order.
func TestParallelEqualsSequentialFaulted(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	spec, err := fault.ParseSpec("all=0.1")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	render := func(parallel int) string {
		o := parallelTestOptions(parallel, "gups", "web-serving")
		o.Faults = spec
		res, err := Speedup(o)
		if err != nil {
			t.Fatalf("Speedup(parallel=%d): %v", parallel, err)
		}
		return RenderSpeedup(res)
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("faulted speedup output differs between -parallel 1 and -parallel 8:\nsequential:\n%s\nparallel:\n%s", seq, par)
	}
}

// TestParallelEqualsSequentialMultiTier extends width equivalence to
// the multi-tier cells: chains of different depths (with the device
// tracker attached on the deep ones) are scheduled arbitrarily across
// workers, yet rows land in (workload, depth, method) order with
// identical bytes.
func TestParallelEqualsSequentialMultiTier(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	render := func(parallel int) string {
		rows, err := MultiTier(parallelTestOptions(parallel, "gups"))
		if err != nil {
			t.Fatalf("MultiTier(parallel=%d): %v", parallel, err)
		}
		return RenderMultiTier(rows)
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("multitier output differs between -parallel 1 and -parallel 8:\nsequential:\n%s\nparallel:\n%s", seq, par)
	}
}

// TestRunnerStatsSurface checks the observability hook: an experiment
// run with an injected clock reports one stat entry per cell with
// nonzero wall times, and the pool width honors Options.Parallel.
func TestRunnerStatsSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling runs are slow")
	}
	opts := parallelTestOptions(2, "gups")
	opts.Refs = 200_000
	var tick atomic.Int64
	opts.NowNS = func() int64 { return tick.Add(1000) }
	var got []runner.Stats
	var labels []string
	opts.OnRunnerStats = func(experiment string, s runner.Stats) {
		labels = append(labels, experiment)
		got = append(got, s)
	}
	if _, err := Overhead(opts); err != nil {
		t.Fatalf("Overhead: %v", err)
	}
	if len(got) != 1 || labels[0] != "overhead" {
		t.Fatalf("stats callbacks: %v", labels)
	}
	s := got[0]
	if s.Jobs != len(overheadConfigs) {
		t.Errorf("Jobs = %d, want %d", s.Jobs, len(overheadConfigs))
	}
	if s.Workers != 2 {
		t.Errorf("Workers = %d, want 2", s.Workers)
	}
	if s.WallNS <= 0 || s.BusyNS <= 0 {
		t.Errorf("timings not filled: wall=%d busy=%d", s.WallNS, s.BusyNS)
	}
	for i, js := range s.PerJob {
		if js.Name == "" || js.WallNS <= 0 {
			t.Errorf("PerJob[%d] incomplete: %+v", i, js)
		}
	}
}
