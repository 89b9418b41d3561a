package experiments

import (
	"fmt"
	"strings"

	"tieredmem/internal/core"
	"tieredmem/internal/emul"
	"tieredmem/internal/ibs"
	"tieredmem/internal/policy"
	"tieredmem/internal/report"
	"tieredmem/internal/runner"
	"tieredmem/internal/sim"
	"tieredmem/internal/workload"
)

// SpeedupRow is one workload's §VI-C end-to-end result: TMP-driven
// placement (History policy on the combined rank) versus the
// NUMA-like first-come-first-allocate baseline, under the BadgerTrap
// emulation cost model (10 us slow-access fault, +13 us hot page,
// 50 us migration) and under the simulator's native NVM latencies.
type SpeedupRow struct {
	Workload string
	// Emulated arm (the paper's methodology).
	EmulBaselineNS int64
	EmulTMPNS      int64
	EmulSpeedup    float64
	// Native-latency arm (simulator capability beyond the paper).
	SimBaselineNS int64
	SimTMPNS      int64
	SimSpeedup    float64
	// Hitrates of the native arm, for context.
	BaseHitrate float64
	TMPHitrate  float64
}

// SpeedupResult bundles rows with aggregates.
type SpeedupResult struct {
	Rows []SpeedupRow
	// Averages over workloads (paper: 1.04x average, 1.13x best).
	EmulAvg, EmulBest float64
	SimAvg, SimBest   float64
}

// speedupArms lists the four placement arms of one workload's row, in
// a fixed order the assembly below indexes by.
var speedupArms = []struct {
	name    string
	history bool // History policy (vs first-touch baseline)
	emul    bool // BadgerTrap emulation cost model (vs native latency)
}{
	{"emul-baseline", false, true},
	{"emul-tmp", true, true},
	{"sim-baseline", false, false},
	{"sim-tmp", true, false},
}

// speedupArm runs one self-contained placement simulation.
func speedupArm(opts Options, name string, history, useEmul bool) (sim.PlacementResult, error) {
	const ratio = 16
	w, err := workload.New(name, opts.workloadConfig())
	if err != nil {
		return sim.PlacementResult{}, err
	}
	var costs *emul.Costs
	if useEmul {
		c := emul.PaperCosts(0)
		costs = &c
	}
	period := ibs.PeriodForRate(opts.BasePeriod, ibs.Rate4x)
	var p policy.Policy
	if history {
		p = policy.History{}
	}
	cfg := sim.DefaultPlacementConfig(w, period, opts.Refs, ratio, p, core.MethodCombined)
	cfg.EmulCosts = costs
	cfg.Faults = opts.faultPlane()
	return sim.RunPlacement(cfg, w)
}

// Speedup reproduces the end-to-end evaluation: a 1/16 fast:total
// capacity ratio (the paper's 4 GB fast + 60 GB slow), History policy
// on TMP's combined rank, against first-touch. Every workload
// contributes four independent arms (emulated/native x baseline/TMP);
// all 4 x len(workloads) simulations fan out on the runner pool.
func Speedup(opts Options) (SpeedupResult, error) {
	var res SpeedupResult
	names := opts.workloads()
	jobs := make([]runner.Job[sim.PlacementResult], 0, len(names)*len(speedupArms))
	for _, name := range names {
		for _, arm := range speedupArms {
			jobs = append(jobs, runner.Job[sim.PlacementResult]{
				Name: "speedup/" + name + "/" + arm.name,
				Run: func() (sim.PlacementResult, error) {
					r, err := speedupArm(opts, name, arm.history, arm.emul)
					if err != nil {
						return r, fmt.Errorf("experiments: %s %s: %w", name, arm.name, err)
					}
					return r, nil
				},
			})
		}
	}
	arms, err := runCells(opts, "speedup", jobs)
	if err != nil {
		return res, err
	}
	for i, name := range names {
		a := arms[i*len(speedupArms) : (i+1)*len(speedupArms)]
		eb, et, sb, st := a[0], a[1], a[2], a[3]
		row := SpeedupRow{Workload: name}
		row.EmulBaselineNS, row.EmulTMPNS = eb.DurationNS, et.DurationNS
		if et.DurationNS > 0 {
			row.EmulSpeedup = float64(eb.DurationNS) / float64(et.DurationNS)
		}
		row.SimBaselineNS, row.SimTMPNS = sb.DurationNS, st.DurationNS
		if st.DurationNS > 0 {
			row.SimSpeedup = float64(sb.DurationNS) / float64(st.DurationNS)
		}
		row.BaseHitrate, row.TMPHitrate = sb.Hitrate(), st.Hitrate()
		res.Rows = append(res.Rows, row)
	}
	for _, r := range res.Rows {
		res.EmulAvg += r.EmulSpeedup
		res.SimAvg += r.SimSpeedup
		if r.EmulSpeedup > res.EmulBest {
			res.EmulBest = r.EmulSpeedup
		}
		if r.SimSpeedup > res.SimBest {
			res.SimBest = r.SimSpeedup
		}
	}
	if n := float64(len(res.Rows)); n > 0 {
		res.EmulAvg /= n
		res.SimAvg /= n
	}
	return res, nil
}

// RenderSpeedup draws the study.
func RenderSpeedup(res SpeedupResult) string {
	t := report.NewTable(
		"§VI-C: End-to-end speedup of TMP+History over first-touch (1/16 fast tier)",
		"workload", "emul_speedup", "sim_speedup", "base_hitrate", "tmp_hitrate")
	for _, r := range res.Rows {
		t.AddRow(r.Workload,
			fmt.Sprintf("%.3fx", r.EmulSpeedup),
			fmt.Sprintf("%.3fx", r.SimSpeedup),
			r.BaseHitrate, r.TMPHitrate)
	}
	var b strings.Builder
	b.WriteString(t.Render())
	fmt.Fprintf(&b, "\nEmulated: avg %.3fx, best %.3fx (paper: avg 1.04x, best 1.13x). Native-latency: avg %.3fx, best %.3fx.\n",
		res.EmulAvg, res.EmulBest, res.SimAvg, res.SimBest)
	return b.String()
}
