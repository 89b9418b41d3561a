package experiments

import (
	"fmt"

	"tieredmem/internal/ibs"
	"tieredmem/internal/report"
	"tieredmem/internal/runner"
	"tieredmem/internal/sim"
	"tieredmem/internal/workload"
)

// OverheadRow is one workload's §VI-B profiling-overhead measurement:
// end-to-end runtime under each profiling configuration relative to an
// unprofiled run of the same reference stream.
type OverheadRow struct {
	Workload   string
	BaseNS     int64   // unprofiled duration
	AbitPct    float64 // A-bit walks every scaled second (paper: <1%)
	IBSDefPct  float64 // IBS at the default rate (paper: <2%)
	IBS4xPct   float64 // IBS at 4x (paper: <5%)
	TMPFullPct float64 // everything on, with HWPC gating
}

// overheadConfigs lists the §VI-B profiling configurations, in the
// column order of the rendered table. Each is one runner cell.
var overheadConfigs = []struct {
	name   string
	mutate func(opts Options, cfg *sim.Config)
}{
	{"base", func(opts Options, cfg *sim.Config) {
		// Disable everything: no scans, no sampling, no gating.
		cfg.TMP.Gating = false
		cfg.TMP.IBS.Period = 1 << 40
		cfg.TMP.Abit.Interval = 1 << 60
	}},
	{"abit", func(opts Options, cfg *sim.Config) {
		cfg.TMP.Gating = false
		cfg.TMP.IBS.Period = 1 << 40
	}},
	{"ibs-default", func(opts Options, cfg *sim.Config) {
		cfg.TMP.Gating = false
		cfg.TMP.Abit.Interval = 1 << 60
		cfg.TMP.IBS.Period = ibs.PeriodForRate(opts.BasePeriod, ibs.Rate1x)
	}},
	{"ibs-4x", func(opts Options, cfg *sim.Config) {
		cfg.TMP.Gating = false
		cfg.TMP.Abit.Interval = 1 << 60
		cfg.TMP.IBS.Period = ibs.PeriodForRate(opts.BasePeriod, ibs.Rate4x)
	}},
	{"tmp-full", func(opts Options, cfg *sim.Config) {
		cfg.TMP.Gating = true
		cfg.TMP.IBS.Period = ibs.PeriodForRate(opts.BasePeriod, ibs.Rate4x)
	}},
}

// Overhead measures profiling cost by running each workload once
// without any profiler and once per configuration, comparing
// end-to-end virtual durations — the paper's methodology ("we measured
// the end-to-end latency of each workload with our profiler"). Every
// (workload, configuration) pair is an independent simulation, so all
// len(workloads) x 5 cells fan out on the runner pool; rows assemble
// from the ordered results.
func Overhead(opts Options) ([]OverheadRow, error) {
	names := opts.workloads()
	jobs := make([]runner.Job[int64], 0, len(names)*len(overheadConfigs))
	for _, name := range names {
		for _, oc := range overheadConfigs {
			jobs = append(jobs, runner.Job[int64]{
				Name: "overhead/" + name + "/" + oc.name,
				Run: func() (int64, error) {
					return runDuration(opts, name, func(cfg *sim.Config) { oc.mutate(opts, cfg) })
				},
			})
		}
	}
	durations, err := runCells(opts, "overhead", jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]OverheadRow, 0, len(names))
	for i, name := range names {
		d := durations[i*len(overheadConfigs) : (i+1)*len(overheadConfigs)]
		base := d[0]
		rows = append(rows, OverheadRow{
			Workload:   name,
			BaseNS:     base,
			AbitPct:    pct(d[1], base),
			IBSDefPct:  pct(d[2], base),
			IBS4xPct:   pct(d[3], base),
			TMPFullPct: pct(d[4], base),
		})
	}
	return rows, nil
}

// runDuration executes one profiling configuration and returns the
// end-to-end virtual duration.
func runDuration(opts Options, name string, mutate func(*sim.Config)) (int64, error) {
	w, err := workload.New(name, opts.workloadConfig())
	if err != nil {
		return 0, err
	}
	cfg := sim.DefaultConfig(w, opts.BasePeriod, opts.Refs)
	mutate(&cfg)
	cfg.Faults = opts.faultPlane()
	r, err := sim.New(cfg, w)
	if err != nil {
		return 0, err
	}
	res, err := r.Run()
	if err != nil {
		return 0, err
	}
	return res.DurationNS, nil
}

func pct(with, without int64) float64 {
	if without == 0 {
		return 0
	}
	p := (float64(with)/float64(without) - 1) * 100
	if p < 0 {
		p = 0 // clock jitter below resolution
	}
	return p
}

// RenderOverhead draws the study.
func RenderOverhead(rows []OverheadRow) string {
	t := report.NewTable(
		"§VI-B: End-to-end profiling overhead (% of unprofiled runtime)",
		"workload", "abit@1s", "ibs(default)", "ibs(4x)", "tmp(full,gated)")
	for _, r := range rows {
		t.AddRow(r.Workload,
			fmt.Sprintf("%.2f%%", r.AbitPct),
			fmt.Sprintf("%.2f%%", r.IBSDefPct),
			fmt.Sprintf("%.2f%%", r.IBS4xPct),
			fmt.Sprintf("%.2f%%", r.TMPFullPct))
	}
	return t.Render() + "\nPaper bounds: A-bit <1%, IBS default <2%, IBS 4x <5%.\n"
}
