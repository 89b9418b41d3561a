package main

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"tieredmem/internal/core"
	"tieredmem/internal/cpu"
	"tieredmem/internal/fault/invariant"
	"tieredmem/internal/mem"
	"tieredmem/internal/policy"
	"tieredmem/internal/provenance"
	"tieredmem/internal/sim"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/trace"
	"tieredmem/internal/workload"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's origin; Parent indexes the enclosing span (-1 for a root)
// and Run the machine the call worked on.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run"`
}

// runInfo describes one replayed machine: a whole monolithic arm, one
// cell of a sharded arm (Cell >= 0), or a sharded arm's own spans
// around its cells (Cell == -1). The counts come from Outcome flags and
// engine stats, read where the work happens.
type runInfo struct {
	Arm          int    `json:"arm"`
	Cell         int    `json:"cell"`
	Refs         int    `json:"refs"`
	TLBMisses    uint64 `json:"tlb_misses"`
	Walks        uint64 `json:"walks"`
	MinorFaults  uint64 `json:"minor_faults"`
	HarvestPages uint64 `json:"harvest_pages"`
	IBSDelivered uint64 `json:"ibs_delivered"`
	DevObserved  uint64 `json:"dev_observed"`
	DevFolded    uint64 `json:"dev_folded"`
}

// tracer keeps every span in memory; spans are written out after the
// replay ends.
type tracer struct {
	origin time.Time
	spans  []span
	runs   []runInfo
	open   int32 // innermost open span, -1 at top level
	run    int32
}

func newTracer() *tracer { return &tracer{origin: time.Now(), open: -1, run: -1} }

func (t *tracer) begin(name string) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), End: -1, Parent: t.open, Run: t.run})
	t.open = id
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].End = int64(time.Since(t.origin))
	t.open = t.spans[id].Parent
}

// beginRun opens a run's root span; endRun closes it and restores the
// enclosing run.
func (t *tracer) beginRun(name string, info runInfo) (id, prev int32) {
	prev = t.run
	t.run = int32(len(t.runs))
	t.runs = append(t.runs, info)
	return t.begin(name), prev
}

func (t *tracer) endRun(id, prev int32) {
	t.end(id)
	t.run = prev
}

// replayArm is runArm driven from outside: sim.RunPlacement's placement
// loop rebuilt from public calls with a span around each call into a
// layer. A sharded arm replays its cells one after another and fuses
// them in cell order the way sim.RunShardedPlacement does, then
// snapshots provenance and exports like runArm.
func (d workloadDef) replayArm(tr *tracer, seed int64, refs, arm int) (sim.PlacementResult, error) {
	s, err := d.setup(seed, refs, arm)
	if err != nil {
		return sim.PlacementResult{}, err
	}
	root, prev := tr.beginRun("sim.arm", runInfo{Arm: arm, Cell: -1})
	defer tr.endRun(root, prev)
	if !d.Sharded {
		cfg := s.cfg
		s.attach(&cfg, false, 0)
		return replayPlacement(tr, arm, 0, cfg, s.mk())
	}

	probe := s.mk()
	cells := workload.Cells(probe, s.cfg.CPU.Cores)
	procs := len(probe.Processes())
	parts := make([]sim.PlacementResult, cells)
	var runs []telemetry.Labeled
	var logs []provenance.Log
	for c := 0; c < cells; c++ {
		label := cellLabel(s.label, c)
		cfg := s.cfg
		cfg.CPU.Cores = 1
		cfg.TotalRefs = int(workload.SliceRefs(int64(refs), procs, c, cells))
		cfg.Tiers = shardTiers(s.cfg.Tiers, cells)
		s.attach(&cfg, d.Observe, c)
		if cfg.Tracer.Enabled() {
			runs = append(runs, telemetry.Labeled{Label: label, Tracer: cfg.Tracer})
		}
		if cfg.TotalRefs > 0 {
			w, err := workload.Slice(s.mk(), c, cells)
			if err != nil {
				return sim.PlacementResult{}, err
			}
			if parts[c], err = replayPlacement(tr, arm, c, cfg, w); err != nil {
				return sim.PlacementResult{}, err
			}
		}
		if cfg.Prov.Enabled() {
			sp := tr.begin("provenance.snapshot")
			logs = append(logs, cfg.Prov.Snapshot(label))
			tr.end(sp)
		}
	}
	res := fuse(probe.Name(), s.label, parts)
	if len(logs) > 0 {
		sp := tr.begin("provenance.snapshot")
		logs = []provenance.Log{provenance.MergeLogs(s.label, logs)}
		tr.end(sp)
	}
	if !d.Observe {
		return res, nil
	}
	sp := tr.begin("teleout.write")
	defer tr.end(sp)
	return res, export(runs, logs)
}

// cellLabel and shardTiers restate sim's per-cell label and tier carve.
func cellLabel(label string, cell int) string { return fmt.Sprintf("%s/cell%d", label, cell) }

func shardTiers(tiers mem.TierChain, cells int) mem.TierChain {
	out := make(mem.TierChain, len(tiers))
	for i, t := range tiers {
		t.Frames = t.Frames/cells + mem.HugePages
		out[i] = t
	}
	return out
}

// fuse reduces per-cell results the way sim.RunShardedPlacement does:
// every counter adds in cell order, the duration is the slowest cell's,
// and quarantined mechanisms carry their cell's label.
func fuse(name, label string, cells []sim.PlacementResult) sim.PlacementResult {
	out := sim.PlacementResult{Workload: name, NumCores: len(cells)}
	ov := reflect.ValueOf(&out).Elem()
	for c, r := range cells {
		if r.Arm != "" {
			out.Arm = r.Arm
		}
		rv := reflect.ValueOf(r)
		for i := 0; i < rv.NumField(); i++ {
			f := ov.Field(i)
			switch field := ov.Type().Field(i).Name; {
			case field == "NumCores":
			case field == "DurationNS":
				f.SetInt(max(f.Int(), rv.Field(i).Int()))
			case f.Kind() == reflect.Uint64:
				f.SetUint(f.Uint() + rv.Field(i).Uint())
			case f.Kind() == reflect.Int64 || f.Kind() == reflect.Int:
				f.SetInt(f.Int() + rv.Field(i).Int())
			}
		}
		for _, m := range r.Quarantined {
			out.Quarantined = append(out.Quarantined, cellLabel(label, c)+"/"+m)
		}
	}
	return out
}

var errReplayConfig = errors.New("replay covers chain-sized runs without emulation")

// replayPlacement is sim.RunPlacement, call for call, with spans. The
// benchmark checks that it returns exactly what RunPlacement returns.
func replayPlacement(tr *tracer, arm, cell int, cfg sim.PlacementConfig, w workload.Workload) (sim.PlacementResult, error) {
	if cfg.Tiers == nil || cfg.EmulCosts != nil || cfg.TotalRefs <= 0 {
		return sim.PlacementResult{}, errReplayConfig
	}
	root, prev := tr.beginRun("sim.run", runInfo{Arm: arm, Cell: cell})
	defer tr.endRun(root, prev)
	info := &tr.runs[tr.run]

	sp := tr.begin("sim.setup")
	capacity := max(cfg.Tiers[0].Frames-mem.HugePages, 0)
	m, err := cpu.NewMachine(cfg.CPU, cfg.Tiers)
	if err != nil {
		return sim.PlacementResult{}, err
	}
	if cfg.Huge {
		m.SetHugeHint(workload.HugeHintFor(w))
	}
	res := sim.PlacementResult{Workload: w.Name(), Arm: "first-touch", NumCores: len(m.Cores())}
	var prof *core.Profiler
	var mover *policy.Mover
	if cfg.Policy != nil {
		res.Arm = fmt.Sprintf("%s/%s", cfg.Policy.Name(), cfg.Method)
		if prof, err = core.New(cfg.TMP, m, nil); err != nil {
			return sim.PlacementResult{}, err
		}
		for _, pid := range w.Processes() {
			prof.Register(pid)
		}
		mover = policy.NewMover(m)
		mover.Transactional = cfg.TxMigration
		mover.AdmissionBudgetNS = policy.AdmissionBudgetNS(cfg.EpochNS, cfg.AdmissionFrac)
		if cfg.Tracer.Enabled() {
			prof.SetTracer(cfg.Tracer)
			mover.SetTracer(cfg.Tracer)
		}
		if cfg.Prov.Enabled() {
			cfg.Prov.SetTracer(cfg.Tracer)
			mover.SetProvenance(cfg.Prov)
		}
	}
	if cfg.Tracer.Enabled() {
		m.Phys.SetTracer(cfg.Tracer)
	}
	if cfg.Faults != nil {
		m.Phys.SetFaultPlane(cfg.Faults)
		if prof != nil {
			prof.SetFaultPlane(cfg.Faults)
		}
		if mover != nil {
			mover.SetFaultPlane(cfg.Faults)
		}
		if cfg.Tracer.Enabled() {
			cfg.Faults.SetTracer(cfg.Tracer)
		}
	}
	var inv *invariant.Checker
	if cfg.Invariants || cfg.Faults.Enabled() {
		inv = invariant.New()
	}
	var collapser *policy.Collapser
	if cfg.Khugepaged && cfg.Huge {
		collapser = policy.NewCollapser(m)
	}
	pids := w.Processes()
	buf := make([]trace.Ref, cfg.BatchSize)
	var ep core.EpochStats
	tr.end(sp)

	nextEpoch := cfg.EpochNS
	executed := 0
	for executed < cfg.TotalRefs {
		batch := buf[:min(cfg.BatchSize, cfg.TotalRefs-executed)]
		sp = tr.begin("workload.fill")
		w.Fill(batch)
		tr.end(sp)
		sp = tr.begin("cpu.execute")
		for i := range batch {
			o, err := m.Execute(batch[i])
			if err != nil {
				return res, fmt.Errorf("sim: executing ref %d: %w", executed+i, err)
			}
			if o.TLBMiss {
				info.TLBMisses++
			}
			if o.PageWalk {
				info.Walks++
			}
			if o.Source.IsMemory() {
				res.MemAccesses++
				if o.Source == trace.SrcTier1 {
					res.Tier1Hits++
				}
			}
		}
		tr.end(sp)
		executed += len(batch)
		now := m.Now()
		if prof != nil {
			sp = tr.begin("core.tick")
			prof.Tick(now)
			tr.end(sp)
		}
		if now < nextEpoch {
			continue
		}
		epoch := tr.begin("sim.epoch")
		if prof != nil {
			sp = tr.begin("core.harvest")
			prof.HarvestEpochInto(&ep)
			tr.end(sp)
			info.HarvestPages += uint64(len(ep.Pages))
			method := prof.EffectiveMethod(cfg.Method)
			sp = tr.begin("policy.select")
			sel := cfg.Policy.Select(ep, core.EpochStats{}, method, capacity)
			tr.end(sp)
			if cfg.Prov.Enabled() {
				sp = tr.begin("provenance.observe")
				cfg.Prov.BeginEpoch(ep.Epoch, method, cfg.Method, mover.MinPromoteRank)
				cfg.Prov.ObserveHarvest(ep, func(k core.PageKey) bool {
					_, ok := sel[k]
					return ok
				})
				tr.end(sp)
			}
			sp = tr.begin("core.ranks")
			ranks := core.RanksOf(ep, method)
			tr.end(sp)
			sp = tr.begin("policy.apply")
			mover.ApplySelection(sel, ranks)
			tr.end(sp)
			if cfg.Prov.Enabled() {
				sp = tr.begin("provenance.observe")
				cfg.Prov.FinishEpoch()
				tr.end(sp)
			}
		} else {
			sp = tr.begin("mem.reset_epoch")
			m.Phys.ResetEpochAll()
			cfg.Tracer.CutEpoch(now, 0)
			tr.end(sp)
		}
		if collapser != nil {
			sp = tr.begin("policy.collapse")
			collapser.Collapse(pids, 2)
			tr.end(sp)
		}
		if inv != nil {
			sp = tr.begin("invariant.check")
			err := inv.Check(m.Phys, m.Tables(), mover)
			tr.end(sp)
			if err != nil {
				return res, fmt.Errorf("sim: placement epoch at %dns: %w", now, err)
			}
		}
		for nextEpoch <= now {
			nextEpoch += cfg.EpochNS
		}
		tr.end(epoch)
	}
	if inv != nil {
		sp = tr.begin("invariant.check")
		err := inv.Check(m.Phys, m.Tables(), mover)
		tr.end(sp)
		if err != nil {
			return res, fmt.Errorf("sim: final state: %w", err)
		}
	}
	res.Refs = executed
	res.DurationNS = m.Now()
	if mover != nil {
		copyCounters(&res, mover)
	}
	if prof != nil {
		res.Quarantined = prof.QuarantinedMechanisms()
		info.IBSDelivered = prof.IBS.Stats().Delivered
		if prof.DevProf != nil {
			st := prof.DevProf.Stats()
			info.DevObserved, info.DevFolded = st.Observed, st.Folded
		}
	}
	res.FaultsInjected = cfg.Faults.TotalInjected()
	info.Refs = executed
	info.MinorFaults = m.MinorFaults
	return res, nil
}

// copyCounters copies every uint64 mover counter that PlacementResult
// reports under the same field name, as RunPlacement does.
func copyCounters(res *sim.PlacementResult, mv *policy.Mover) {
	rv := reflect.ValueOf(res).Elem()
	mvv := reflect.ValueOf(mv).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if f.Kind() != reflect.Uint64 {
			continue
		}
		if src := mvv.FieldByName(rv.Type().Field(i).Name); src.IsValid() && src.Kind() == reflect.Uint64 {
			f.SetUint(src.Uint())
		}
	}
}
