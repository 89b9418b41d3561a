package sim

import (
	"fmt"

	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/policy"
	"tieredmem/internal/provenance"
	"tieredmem/internal/runner"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/workload"
)

// The intra-cell sharded placement pipeline. A placement run is
// otherwise strictly serial: one goroutine drives every reference of
// the simulated machine. Sharding partitions that machine into
// per-core cells — process i runs on core i mod cores, exactly the
// pinning rule cpu.Machine uses — and executes each cell on the
// bounded worker pool (runner.ShardGroup) with fully private state:
// its own workload slice, machine, profiler, policy, fault plane,
// tracer, and flight recorder. Results are fused with deterministic
// reduces that walk cells in cell-index order, never completion order:
// counters add in cell order, telemetry exports per-cell traces in
// cell order, and provenance logs concatenate disjoint page sets into
// one canonical log. Because the partition is fixed by the machine
// shape (cores and processes) and every reduce is ordered, the output
// is a pure function of (seed, config): the pool width changes
// wall-clock only, and width 1 == width 8 byte-identity is
// regression-tested.
//
// The sharded machine model is a deliberate variant of the monolithic
// one: each cell owns a private LLC (the way-partitioned / CAT
// setting), a private slice of each tier's frames, and a per-cell TMP
// daemon, so its absolute numbers differ from a RunPlacement run. What
// it preserves exactly is the profiling semantics under test — per-page
// evidence, ranks, placement verdicts — within each cell, at a
// refs/sec that scales with cores.
//
// No command runs this model any more. The pipeline remains only
// because the benchmark module's write-audit workload still runs
// through it (bench/workloads.go, and bench/replay.go's copy of its
// reduce); it goes, with its tests and goldens, once that workload
// runs the single-goroutine machine (see ROADMAP.md).

// shardTiers carves a whole-machine tier sizing into one cell's share:
// every tier keeps 1/cells of its frames plus the huge-fault slack
// (the same slack rule the whole-machine sizing applies once). nil in,
// nil out — New or RunPlacement then sizes the cell's machine from its
// own slice of the workload.
func shardTiers(tiers mem.TierChain, cells int) mem.TierChain {
	if tiers == nil {
		return nil
	}
	out := make(mem.TierChain, len(tiers))
	for i, t := range tiers {
		t.Frames = t.Frames/cells + mem.HugePages
		out[i] = t
	}
	return out
}

// cellLabel names cell i of a run ("history/cell3", or "cell3" when
// the run has no label).
func cellLabel(label string, cell int) string {
	if label == "" {
		return fmt.Sprintf("cell%d", cell)
	}
	return fmt.Sprintf("%s/cell%d", label, cell)
}

// prefixQuarantined rewrites one cell's quarantined-mechanism list
// with its cell prefix so the fused list states which cell's daemon
// tripped.
func prefixQuarantined(dst []string, label string, cell int, mechs []string) []string {
	for _, m := range mechs {
		dst = append(dst, cellLabel(label, cell)+"/"+m)
	}
	return dst
}

// shardPlan is a sharded run's partition and per-cell observability,
// fixed in cell order before any cell runs, so exports never depend on
// completion order and a cell with no references still has its tracer
// and fault plane.
type shardPlan struct {
	probe   workload.Workload // a fresh instance: name and process count
	label   string
	cells   int
	tracers []*telemetry.Tracer // nil entries unless traced
	labeled []telemetry.Labeled // the tracers under their cell labels
	planes  []*fault.Plane      // nil entries when the spec is zero
}

// planShards probes mk for the partition (one cell per core with
// processes to run) and derives each cell's tracer and fault plane,
// the plane seeded seed+cell.
func planShards(mk func() workload.Workload, cores int, label string, trace bool, spec fault.Spec, seed int64) (*shardPlan, error) {
	probe := mk()
	if !workload.Sliceable(probe) {
		return nil, fmt.Errorf("sim: workload %q cannot be sharded per core", probe.Name())
	}
	cells := workload.Cells(probe, cores)
	if cells < 1 {
		return nil, fmt.Errorf("sim: workload %q has no processes to shard", probe.Name())
	}
	p := &shardPlan{probe: probe, label: label, cells: cells,
		tracers: make([]*telemetry.Tracer, cells), planes: make([]*fault.Plane, cells)}
	for c := range cells {
		if trace {
			p.tracers[c] = telemetry.New()
			p.labeled = append(p.labeled, telemetry.Labeled{Label: cellLabel(label, c), Tracer: p.tracers[c]})
		}
		if !spec.Zero() {
			p.planes[c] = fault.New(spec, seed+int64(c))
		}
	}
	return p, nil
}

// runShards fans a plan's cells out on a pool of the given width and
// returns their results in cell order. A cell with references runs
// run on its share of totalRefs and its slice of a fresh mk()
// instance; a cell without any yields the zero PlacementResult.
func runShards(p *shardPlan, width int, nowNS func() int64, totalRefs int, mk func() workload.Workload,
	run func(cell, refs int, w workload.Workload) (PlacementResult, error)) ([]PlacementResult, runner.Stats, error) {
	procs := len(p.probe.Processes())
	return runner.ShardGroup(
		runner.Config{Workers: width, NowNS: nowNS}, p.cells,
		func(c int) string { return cellLabel(p.label, c) },
		func(cell int) (zero PlacementResult, err error) {
			refs := workload.SliceRefs(int64(totalRefs), procs, cell, p.cells)
			if refs == 0 {
				return zero, nil
			}
			sliced, err := workload.Slice(mk(), cell, p.cells)
			if err != nil {
				return zero, err
			}
			return run(cell, int(refs), sliced)
		})
}

// ShardedPlacementConfig wraps a PlacementConfig for sharded
// execution.
type ShardedPlacementConfig struct {
	// Base is the whole-machine configuration. Its Policy, Tracer,
	// Faults, and Prov fields must be nil: policies may be stateful
	// (History keeps last-epoch state, Decay keeps scores), so each
	// cell constructs its own from MkPolicy, and tracers, fault planes
	// and recorders are derived per cell.
	Base PlacementConfig
	// Shards is the worker-pool width; <= 0 means GOMAXPROCS. Never
	// affects output bytes.
	Shards int
	// NowNS is the optional wall clock for runner stats (mains inject
	// time.Since; internal packages must not read the wall clock).
	NowNS func() int64
	// Label prefixes per-cell telemetry labels ("<label>/cell<i>").
	Label string
	// MkPolicy builds one cell's private policy instance; nil runs the
	// first-touch baseline arm.
	MkPolicy func() policy.Policy
	// Trace builds a private tracer per cell, exported in cell order.
	Trace bool
	// Prov builds a private flight recorder per policy cell; the fused
	// log (one per run, canonical page order) is in the result.
	Prov bool
	// FaultSpec, when non-zero, gives every cell a private fault plane
	// seeded FaultSeed+cell — deterministic, independent streams.
	FaultSpec fault.Spec
	FaultSeed int64
}

// ShardedPlacementResult is a fused placement run plus per-cell
// observability.
type ShardedPlacementResult struct {
	PlacementResult
	Cells     int
	Stats     runner.Stats
	Telemetry []telemetry.Labeled
	Planes    []*fault.Plane
	// Prov is the fused provenance log (zero-valued when Prov was not
	// requested or the run was a baseline arm). Pages across cells are
	// disjoint — each cell owns its processes — so the fusion is a
	// concatenation re-sorted into canonical (PID, VPN) order.
	Prov    provenance.Log
	HasProv bool
}

// RunShardedPlacement executes an end-to-end placement run sharded per
// core and fuses the result: counters sum in cell order, the virtual
// duration is the slowest cell (the modeled machine's critical path),
// and telemetry/provenance export per-cell in cell order. Output is a
// pure function of (seed, config) at any Shards width.
func RunShardedPlacement(scfg ShardedPlacementConfig, mk func() workload.Workload) (ShardedPlacementResult, error) {
	if scfg.Base.Policy != nil || scfg.Base.Tracer != nil || scfg.Base.Faults != nil || scfg.Base.Prov != nil {
		return ShardedPlacementResult{}, fmt.Errorf("sim: sharded placement derives per-cell policy/tracer/faults/prov; set MkPolicy/Trace/FaultSpec/Prov on ShardedPlacementConfig, not Base")
	}
	p, err := planShards(mk, scfg.Base.CPU.Cores, scfg.Label, scfg.Trace, scfg.FaultSpec, scfg.FaultSeed)
	if err != nil {
		return ShardedPlacementResult{}, err
	}
	recorders := make([]*provenance.Recorder, p.cells)
	if scfg.Prov && scfg.MkPolicy != nil {
		for c := range recorders {
			recorders[c] = provenance.New()
		}
	}
	sres := ShardedPlacementResult{Cells: p.cells, Telemetry: p.labeled, Planes: p.planes}
	results, stats, err := runShards(p, scfg.Shards, scfg.NowNS, scfg.Base.TotalRefs, mk,
		func(cell, refs int, w workload.Workload) (PlacementResult, error) {
			cfg := scfg.Base
			cfg.CPU.Cores = 1
			cfg.TotalRefs = refs
			cfg.Tiers = shardTiers(scfg.Base.Tiers, p.cells)
			if scfg.MkPolicy != nil {
				cfg.Policy = scfg.MkPolicy()
			}
			cfg.Tracer = p.tracers[cell]
			cfg.Faults = p.planes[cell]
			cfg.Prov = recorders[cell]
			return RunPlacement(cfg, w)
		})
	sres.Stats = stats
	if err != nil {
		return sres, err
	}

	sres.Workload = p.probe.Name()
	sres.NumCores = p.cells
	fused := moverCounters(&sres.PlacementResult, nil)
	for c, r := range results {
		if r.Arm != "" {
			sres.Arm = r.Arm
		}
		sres.Refs += r.Refs
		if r.DurationNS > sres.DurationNS {
			sres.DurationNS = r.DurationNS
		}
		sres.MemAccesses += r.MemAccesses
		sres.Tier1Hits += r.Tier1Hits
		sres.EmulInjected += r.EmulInjected
		sres.EmulFaults += r.EmulFaults
		for i, cc := range moverCounters(&r, nil) {
			*fused[i].res += *cc.res
		}
		sres.FaultsInjected += r.FaultsInjected
		sres.Quarantined = prefixQuarantined(sres.Quarantined, scfg.Label, c, r.Quarantined)
	}
	if scfg.Prov && scfg.MkPolicy != nil {
		parts := make([]provenance.Log, 0, p.cells)
		for c, rec := range recorders {
			if rec.Enabled() {
				parts = append(parts, rec.Snapshot(cellLabel(scfg.Label, c)))
			}
		}
		sres.Prov = provenance.MergeLogs(scfg.Label, parts)
		sres.HasProv = true
	}
	return sres, nil
}
