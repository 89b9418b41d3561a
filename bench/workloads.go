package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tieredmem/internal/core"
	"tieredmem/internal/fault"
	"tieredmem/internal/policy"
	"tieredmem/internal/provenance"
	"tieredmem/internal/runner"
	"tieredmem/internal/sim"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/teleout"
	"tieredmem/internal/workload"
)

// workloadDef is one placement configuration. Every rep runs it twice:
// the first-touch baseline arm, then the History policy over TMP
// evidence. README.md says why each workload is in the set.
type workloadDef struct {
	Name  string
	Gen   string // workload generator (workload.New name)
	Refs  int    // simulated references per arm
	Ratio int    // footprint : fast-tier ratio
	Tiers int    // sim.DefaultChain depth
	TxMig bool
	// Faults is a fault.ParseSpec spec; injection forces the per-epoch
	// invariant checker on.
	Faults string
	// Observe turns telemetry and provenance on and exports both as
	// JSONL into a scratch directory that is removed afterwards. Only
	// sharded workloads observe.
	Observe bool
	// Sharded runs each arm through sim.RunShardedPlacement on
	// shardWidth() workers.
	Sharded bool
}

var workloads = []workloadDef{
	{Name: "cloud-steady", Gen: "data-caching", Refs: 4_000_000, Ratio: 16, Tiers: 2},
	{Name: "hpc-bigfoot", Gen: "xsbench", Refs: 2_000_000, Ratio: 16, Tiers: 2},
	{Name: "phase-churn", Gen: "phase-shift", Refs: 8_000_000, Ratio: 16, Tiers: 3, TxMig: true},
	{Name: "write-audit", Gen: "write-split", Refs: 8_000_000, Ratio: 8, Tiers: 2, TxMig: true,
		Faults: "all=0.02", Observe: true, Sharded: true},
}

const (
	firstTouchArm = 0
	policyArm     = 1
	// ibsPeriod is tmpsim's default IBS op period.
	ibsPeriod = 4096
	// setupRefs is one placement batch: a run that builds everything
	// and simulates almost nothing.
	setupRefs = 1024
)

// armLabels name the two arms in telemetry and provenance labels.
var armLabels = [2]string{"first-touch", "history"}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// shardWidth is the worker count of sharded workloads: two, or one on a
// single-CPU host.
func shardWidth() int { return min(2, runtime.NumCPU()) }

// threads is how many Ps a rep of the workload runs with: one per shard
// worker, else one. A single-threaded simulation given a second P runs
// the GC beside it, and the heap then overshoots by a varying amount,
// which made peak RSS vary by ±20% between identical reps.
func (d workloadDef) threads() int {
	if d.Sharded {
		return shardWidth()
	}
	return 1
}

// configString is the canonical description of a workload's config at a
// seed; its digest goes into every result.
func (d workloadDef) configString(seed int64) string {
	return fmt.Sprintf("workload=%s gen=%s seed=%d refs=%d ratio=%d tiers=%d method=%s policy=history txmig=%t admission=0 faults=%q observe=%t sharded=%t shards=%d threads=%d",
		d.Name, d.Gen, seed, d.Refs, d.Ratio, d.Tiers, core.MethodCombined, d.TxMig, d.Faults, d.Observe, d.Sharded, shardWidth(), d.threads())
}

func (d workloadDef) mk(seed int64) func() workload.Workload {
	return func() workload.Workload {
		return workload.MustNew(d.Gen, workload.Config{Seed: seed, FirstPID: 100})
	}
}

// armSetup is everything one arm needs before it runs: the base config
// (no policy, tracer, plane or recorder attached) and the pieces a run
// attaches per machine or per cell.
type armSetup struct {
	cfg   sim.PlacementConfig
	spec  fault.Spec
	mkPol func() policy.Policy // nil on the first-touch arm
	label string
	mk    func() workload.Workload
	seed  int64
}

var errObserveMonolithic = errors.New("only sharded workloads observe")

func (d workloadDef) setup(seed int64, refs, arm int) (armSetup, error) {
	if d.Observe && !d.Sharded {
		return armSetup{}, errObserveMonolithic
	}
	mk := d.mk(seed)
	w := mk()
	chain, err := sim.DefaultChain(w, d.Ratio, d.Tiers)
	if err != nil {
		return armSetup{}, err
	}
	spec, err := fault.ParseSpec(d.Faults)
	if err != nil {
		return armSetup{}, err
	}
	cfg := sim.DefaultPlacementConfig(w, ibsPeriod, refs, d.Ratio, nil, core.MethodCombined)
	cfg.Tiers = chain
	cfg.TMP.EnableDevProf = chain.HasDevice()
	cfg.TxMigration = d.TxMig
	s := armSetup{cfg: cfg, spec: spec, label: armLabels[arm], mk: mk, seed: seed}
	if arm == policyArm {
		s.mkPol = func() policy.Policy { return policy.History{} }
	}
	return s, nil
}

// attach gives one machine (a whole arm, or one cell of a sharded arm)
// its private policy, fault plane, tracer and flight recorder, built
// the way sim.RunShardedPlacement builds them per cell.
func (s armSetup) attach(cfg *sim.PlacementConfig, observe bool, cell int) {
	if s.mkPol != nil {
		cfg.Policy = s.mkPol()
	}
	if !s.spec.Zero() {
		cfg.Faults = fault.New(s.spec, s.seed+int64(cell))
	}
	if observe {
		cfg.Tracer = telemetry.New()
		if s.mkPol != nil {
			cfg.Prov = provenance.New()
		}
	}
}

// runArm runs one arm untraced through the public entry points, then
// exports its telemetry and provenance when the workload observes. The
// stats are the shard pool's (zero for a monolithic arm).
func (d workloadDef) runArm(seed int64, refs, arm int) (sim.PlacementResult, runner.Stats, error) {
	s, err := d.setup(seed, refs, arm)
	if err != nil {
		return sim.PlacementResult{}, runner.Stats{}, err
	}
	if d.Sharded {
		start := time.Now()
		sres, err := sim.RunShardedPlacement(sim.ShardedPlacementConfig{
			Base:      s.cfg,
			Shards:    shardWidth(),
			NowNS:     func() int64 { return int64(time.Since(start)) },
			Label:     s.label,
			MkPolicy:  s.mkPol,
			Trace:     d.Observe,
			Prov:      d.Observe,
			FaultSpec: s.spec,
			FaultSeed: seed,
		}, s.mk)
		if err != nil {
			return sim.PlacementResult{}, sres.Stats, err
		}
		var logs []provenance.Log
		if sres.HasProv {
			logs = append(logs, sres.Prov)
		}
		if d.Observe {
			err = export(sres.Telemetry, logs)
		}
		return sres.PlacementResult, sres.Stats, err
	}
	cfg := s.cfg
	s.attach(&cfg, false, 0)
	res, err := sim.RunPlacement(cfg, s.mk())
	return res, runner.Stats{}, err
}

// export writes the JSONL event and provenance logs into a fresh
// directory under the work directory and removes it again.
func export(runs []telemetry.Labeled, logs []provenance.Log) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "export-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := teleout.WriteEvents(filepath.Join(dir, "events.jsonl"), runs); err != nil {
		return err
	}
	if len(logs) == 0 {
		return nil
	}
	return teleout.WriteProvenance(filepath.Join(dir, "provenance.jsonl"), logs)
}
