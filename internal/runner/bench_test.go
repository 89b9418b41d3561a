package runner_test

// Benchmarks the worker pool end-to-end on real experiment cells
// (not synthetic sleeps): the methods comparison over four Table III
// workloads, sequential vs parallel. This is an external test package
// so it may import internal/experiments, which itself imports
// internal/runner.
//
// CI runs BenchmarkRunner and the env-gated TestEmitRunnerBenchJSON
// below to record the sequential-vs-parallel wall time in
// BENCH_runner.json (see .github/workflows/ci.yml). Wall-clock reads
// are fine here: tmplint's wallclock rule exempts _test.go files.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"tieredmem/internal/core"
	"tieredmem/internal/experiments"
	"tieredmem/internal/mem"
	"tieredmem/internal/policy"
	"tieredmem/internal/sim"
	"tieredmem/internal/testalloc"
	"tieredmem/internal/trace"
	"tieredmem/internal/workload"
)

// benchWorkloads is the fixed cell set: one job per workload.
var benchWorkloads = []string{"gups", "web-serving", "data-caching", "lulesh"}

func benchOptions(parallel int) experiments.Options {
	opts := experiments.DefaultOptions()
	opts.Refs = 400_000 // small cells: the benchmark measures the pool, not the sim
	opts.Workloads = benchWorkloads
	opts.Parallel = parallel
	return opts
}

func runCells(tb testing.TB, parallel int) string {
	rows, err := experiments.MethodsComparison(benchOptions(parallel))
	if err != nil {
		tb.Fatalf("methods comparison (parallel=%d): %v", parallel, err)
	}
	return experiments.RenderMethods(rows)
}

// harvestAllocsPerOp measures the steady-state allocation count of the
// recycled-scratch epoch harvest (the same loop BenchmarkHarvestSteadyState
// at the repo root times). The contract is 0: the placement loop's
// per-epoch work reuses its buffers once they have grown to the
// working set. Recording it here makes BENCH_runner.json self-checking
// rather than relying on a benchmark log.
func harvestAllocsPerOp(t *testing.T) float64 {
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
	var ep core.EpochStats
	r.Profiler.HarvestEpochInto(&ep) // grow the scratch once
	// One run of all the harvests, divided here, as epochAllocsPerOp does.
	const harvests = 100
	return testalloc.Count(func() {
		for range harvests {
			r.Machine.Phys.ForEachAllocated(func(_ mem.PFN, pd *mem.PageDescriptor) { pd.Epoch.Abit = 1 })
			r.Profiler.HarvestEpochInto(&ep)
		}
	}) / harvests
}

// epochAllocsPerOp measures the steady-state allocation count of one
// policy-arm placement epoch (harvest, Select, rank table,
// ApplySelection, khugepaged) through sim.EpochProbe, on the
// hpc-bigfoot-shaped machine BenchmarkPlacementEpoch at the repo root
// times. The contract is 0, like the harvest's.
func epochAllocsPerOp(t *testing.T) float64 {
	w := workload.MustNew("xsbench", workload.Config{Seed: 42, FirstPID: 100})
	cfg := sim.DefaultPlacementConfig(w, 4096, 600_000, 16, policy.History{}, core.MethodCombined)
	probe, err := sim.NewEpochProbe(cfg, w)
	if err != nil {
		t.Fatalf("epoch allocs probe: %v", err)
	}
	// One run of all the epochs, divided here: AllocsPerRun divides by
	// its run count in integers, which would hide a fraction.
	const epochs = 20
	return testalloc.Count(func() {
		for i := 0; i < epochs; i++ {
			if _, _, err := probe.Epoch(); err != nil {
				t.Fatalf("epoch allocs probe: %v", err)
			}
		}
	}) / epochs
}

// executeProbe measures the per-reference path, Machine.Execute, on a
// phase-shift machine (the generator behind the benchmark's
// phase-churn) warmed past its 524,288-reference first-touch stream.
// It returns allocations per reference, whose contract is 0, and host
// nanoseconds per reference, which is recorded but not gated. Each
// measurement executes 64 fresh batches of sim.BatchSize references,
// generated before it starts.
func executeProbe(t *testing.T) (allocsPerRef, nsPerRef float64) {
	w := workload.MustNew("phase-shift", workload.Config{Seed: 42, FirstPID: 100})
	r, err := sim.New(sim.DefaultConfig(w, 4096, 1), w)
	if err != nil {
		t.Fatalf("execute probe: %v", err)
	}
	refs := make([]trace.Ref, 64*sim.BatchSize)
	execute := func() {
		for j := range refs {
			if _, err := r.Machine.Execute(refs[j]); err != nil {
				t.Fatalf("execute probe: %v", err)
			}
		}
	}
	for warm := 0; warm < 1<<20; warm += len(refs) {
		w.Fill(refs)
		execute()
	}
	w.Fill(refs)
	allocs := testalloc.Count(execute)
	w.Fill(refs)
	start := time.Now()
	execute()
	ns := time.Since(start).Nanoseconds()
	return allocs / float64(len(refs)), float64(ns) / float64(len(refs))
}

// Sharded-series parameters: one gups placement machine with 8
// simulated cores (8 per-core cells), History on the combined rank.
// Small enough for CI, big enough that the shard pool's speedup is
// measurable on a multi-core host.
const (
	shardCellRefs  = 4_000_000
	shardCellCores = 8
)

// shardedCell runs the reference cell on the intra-cell sharded
// pipeline at the given shard-pool width and returns the wall time
// plus a dump of the fused counters (the identity check across
// widths).
func shardedCell(tb testing.TB, shards int) (int64, string) {
	mk := func() workload.Workload {
		return workload.MustNew("gups", workload.Config{Seed: 42, FirstPID: 100})
	}
	cfg := sim.DefaultPlacementConfig(mk(), 16384, shardCellRefs, 16, nil, core.MethodCombined)
	cfg.CPU.Cores = shardCellCores
	start := time.Now()
	res, err := sim.RunShardedPlacement(sim.ShardedPlacementConfig{
		Base:     cfg,
		Shards:   shards,
		MkPolicy: func() policy.Policy { return policy.History{} },
	}, mk)
	if err != nil {
		tb.Fatalf("sharded cell (shards=%d): %v", shards, err)
	}
	if res.Cells != shardCellCores {
		tb.Fatalf("sharded cell (shards=%d): %d cells, want %d", shards, res.Cells, shardCellCores)
	}
	return time.Since(start).Nanoseconds(), fmt.Sprintf("%+v", res.PlacementResult)
}

func BenchmarkRunner(b *testing.B) {
	modes := []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 0}, // 0 = runtime.GOMAXPROCS(0)
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runCells(b, m.workers)
			}
		})
	}
}

// TestEmitRunnerBenchJSON times one sequential and one parallel run of
// the benchmark cell set and writes the comparison to the path in
// BENCH_RUNNER_JSON (skipped when unset). CI uploads the file as the
// BENCH_runner.json artifact; the committed copy at the repo root is a
// reference measurement from this test.
func TestEmitRunnerBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_RUNNER_JSON")
	if path == "" {
		t.Skip("BENCH_RUNNER_JSON not set")
	}

	start := time.Now()
	seqOut := runCells(t, 1)
	seqNS := time.Since(start).Nanoseconds()

	workers := runtime.GOMAXPROCS(0)
	start = time.Now()
	parOut := runCells(t, 0)
	parNS := time.Since(start).Nanoseconds()

	// The benchmark doubles as a determinism check: both modes must
	// render byte-identical tables.
	if seqOut != parOut {
		t.Fatalf("parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqOut, parOut)
	}

	// Intra-cell sharded series: the same 8-cell machine at shard-pool
	// width 1 vs GOMAXPROCS, with the fused counters as the identity
	// check. refs/sec here is per machine, not per pool — the number
	// PERFORMANCE.md quotes.
	shardWorkers := workers
	shardSeqNS, shardSeqOut := shardedCell(t, 1)
	shardParNS, shardParOut := shardedCell(t, shardWorkers)
	if shardSeqOut != shardParOut {
		t.Fatalf("sharded output differs across widths 1 and %d:\n--- shards=1 ---\n%s\n--- shards=%d ---\n%s",
			shardWorkers, shardSeqOut, shardWorkers, shardParOut)
	}

	executeAllocs, executeNS := executeProbe(t)

	// The artifact is self-describing: a speedup below 1 with
	// gomaxprocs/num_cpu of 1 documents a single-core run where the
	// pool cannot pay for itself, not a regression. The committed copy
	// at the repo root records whatever machine last regenerated it;
	// the bench-runner CI job uploads the multi-core measurement.
	report := struct {
		Benchmark          string   `json:"benchmark"`
		Experiment         string   `json:"experiment"`
		Workloads          []string `json:"workloads"`
		RefsPerCell        int      `json:"refs_per_cell"`
		Workers            int      `json:"workers"`
		GOMAXPROCS         int      `json:"gomaxprocs"`
		NumCPU             int      `json:"num_cpu"`
		SequentialNS       int64    `json:"sequential_ns"`
		ParallelNS         int64    `json:"parallel_ns"`
		Speedup            float64  `json:"speedup"`
		HarvestAllocsPerOp float64  `json:"harvest_allocs_per_op"`
		EpochAllocsPerOp   float64  `json:"epoch_allocs_per_op"`
		ExecuteAllocsPerOp float64  `json:"execute_allocs_per_op"`
		ExecuteNSPerRef    float64  `json:"execute_ns_per_ref"`
		Identical          bool     `json:"output_identical"`
		// Intra-cell sharded pipeline series (one 8-cell machine).
		Shards             int     `json:"shards"`
		ShardCells         int     `json:"shard_cells"`
		ShardRefs          int     `json:"shard_refs_per_machine"`
		ShardSeqNS         int64   `json:"shard_sequential_ns"`
		ShardParNS         int64   `json:"shard_parallel_ns"`
		ShardSeqRefsPerSec float64 `json:"shard_sequential_refs_per_sec"`
		ShardParRefsPerSec float64 `json:"shard_parallel_refs_per_sec"`
		ShardSpeedup       float64 `json:"shard_speedup"`
		ShardIdentical     bool    `json:"shard_output_identical"`
	}{
		Benchmark:          "BenchmarkRunner",
		Experiment:         "methods",
		Workloads:          benchWorkloads,
		RefsPerCell:        benchOptions(0).Refs,
		Workers:            workers,
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		NumCPU:             runtime.NumCPU(),
		SequentialNS:       seqNS,
		ParallelNS:         parNS,
		Speedup:            float64(seqNS) / float64(parNS),
		HarvestAllocsPerOp: harvestAllocsPerOp(t),
		EpochAllocsPerOp:   epochAllocsPerOp(t),
		ExecuteAllocsPerOp: executeAllocs,
		ExecuteNSPerRef:    executeNS,
		Identical:          true,
		Shards:             shardWorkers,
		ShardCells:         shardCellCores,
		ShardRefs:          shardCellRefs,
		ShardSeqNS:         shardSeqNS,
		ShardParNS:         shardParNS,
		ShardSeqRefsPerSec: float64(shardCellRefs) / (float64(shardSeqNS) / 1e9),
		ShardParRefsPerSec: float64(shardCellRefs) / (float64(shardParNS) / 1e9),
		ShardSpeedup:       float64(shardSeqNS) / float64(shardParNS),
		ShardIdentical:     true,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("sequential=%s parallel=%s speedup=%.2fx (workers=%d) -> %s",
		time.Duration(seqNS), time.Duration(parNS), report.Speedup, workers, path)
	t.Logf("Machine.Execute on warmed phase-shift: %.1f ns/ref, %v allocs/ref", executeNS, executeAllocs)
	t.Logf("sharded cell: shards=1 %s (%.0f refs/s) shards=%d %s (%.0f refs/s) speedup=%.2fx",
		time.Duration(shardSeqNS), report.ShardSeqRefsPerSec,
		shardWorkers, time.Duration(shardParNS), report.ShardParRefsPerSec, report.ShardSpeedup)
}
