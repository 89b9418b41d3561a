package experiments

import (
	"fmt"

	"tieredmem/internal/ibs"
	"tieredmem/internal/report"
	"tieredmem/internal/runner"
	"tieredmem/internal/sim"
	"tieredmem/internal/workload"
)

// ColocationResult measures the TMP daemon's process filter (§III-B4,
// second optimization: profile only processes with >=5% CPU or >=10%
// memory, re-evaluated every second) in the consolidation setting it
// was designed for: one busy service sharing a machine with a crowd of
// near-idle memory hogs.
type ColocationResult struct {
	IdlerCount int
	// A-bit walk work with the filter on and off.
	FilteredPTEs   uint64
	UnfilteredPTEs uint64
	// A-bit overhead (virtual ns charged) with the filter on and off.
	FilteredAbitNS   int64
	UnfilteredAbitNS int64
	// ProfiledPIDs is how many of the processes passed the filter.
	ProfiledPIDs int
	TotalPIDs    int
	// Detection on the busy service must be unharmed by filtering.
	FilteredBusyPages   int
	UnfilteredBusyPages int
}

// Colocation runs a data-caching service weighted 64:1 against
// idlerCount idle 4 MiB-heap processes, once with the resource filter
// active and once profiling everything, and compares A-bit walk work.
func Colocation(opts Options, idlerCount int) (ColocationResult, error) {
	res := ColocationResult{IdlerCount: idlerCount}

	build := func() (workload.Workload, core0UsageFunc, error) {
		busy := workload.MustNew("data-caching", workload.Config{Seed: opts.Seed, FirstPID: 100, ScaleShift: opts.ScaleShift})
		idle := workload.NewIdlers(workload.Config{Seed: opts.Seed, FirstPID: 500, ScaleShift: opts.ScaleShift}, idlerCount, 4<<20)
		w, err := workload.CombineWeighted([]workload.Workload{busy, idle}, []int{64, 1})
		if err != nil {
			return nil, nil, err
		}
		busyPIDs := map[int]bool{}
		for _, pid := range busy.Processes() {
			busyPIDs[pid] = true
		}
		nBusy := float64(len(busy.Processes()))
		total := float64(w.FootprintBytes())
		usage := func(pid int) (float64, float64) {
			if busyPIDs[pid] {
				// The busy service splits ~98% of the CPU.
				return 0.98 / nBusy, float64(busy.FootprintBytes()) / total / nBusy
			}
			// Idlers: negligible CPU, a few MiB each.
			return 0.001, float64(4<<20) / total
		}
		return w, usage, nil
	}

	// colocationArm is everything one arm's simulation yields; arms
	// are self-contained (each builds its own combined workload), so
	// the filtered and unfiltered runs fan out as two runner cells.
	type colocationArm struct {
		ptes         uint64
		abitNS       int64
		profiledPIDs int
		totalPIDs    int
		busyPages    int
	}

	busyPages := func(r sim.Result) int {
		pages := map[[2]uint64]struct{}{}
		for _, ep := range r.Epochs {
			for _, ps := range ep.Pages {
				if ps.Key.PID < 500 && (ps.Abit > 0 || ps.Trace > 0) {
					pages[[2]uint64{uint64(ps.Key.PID), uint64(ps.Key.VPN)}] = struct{}{}
				}
			}
		}
		return len(pages)
	}

	run := func(filtered bool) (colocationArm, error) {
		var arm colocationArm
		w, usage, err := build()
		if err != nil {
			return arm, err
		}
		cfg := sim.DefaultConfig(w, ibs.PeriodForRate(opts.BasePeriod, ibs.Rate4x), opts.Refs)
		cfg.TMP.Gating = opts.Gating
		cfg.Faults = opts.faultPlane()
		if filtered {
			cfg.Usage = usage
		}
		r, err := sim.New(cfg, w)
		if err != nil {
			return arm, err
		}
		out, err := r.Run()
		if err != nil {
			return arm, err
		}
		arm.ptes = r.Profiler.Abit.Stats().PTEsVisited
		arm.abitNS = out.AbitOverheadNS
		arm.profiledPIDs = len(r.Profiler.Profiled())
		arm.totalPIDs = len(r.Workload.Processes())
		arm.busyPages = busyPages(out)
		return arm, nil
	}

	arms, err := runCells(opts, "colocation", []runner.Job[colocationArm]{
		{Name: "colocation/filtered", Run: func() (colocationArm, error) {
			arm, err := run(true)
			if err != nil {
				return arm, fmt.Errorf("experiments: colocation filtered arm: %w", err)
			}
			return arm, nil
		}},
		{Name: "colocation/unfiltered", Run: func() (colocationArm, error) {
			arm, err := run(false)
			if err != nil {
				return arm, fmt.Errorf("experiments: colocation unfiltered arm: %w", err)
			}
			return arm, nil
		}},
	})
	if err != nil {
		return res, err
	}
	f, u := arms[0], arms[1]
	res.FilteredPTEs = f.ptes
	res.FilteredAbitNS = f.abitNS
	res.ProfiledPIDs = f.profiledPIDs
	res.TotalPIDs = f.totalPIDs
	res.FilteredBusyPages = f.busyPages
	res.UnfilteredPTEs = u.ptes
	res.UnfilteredAbitNS = u.abitNS
	res.UnfilteredBusyPages = u.busyPages
	return res, nil
}

// core0UsageFunc is the daemon's usage callback type (alias to avoid
// importing core here just for the signature).
type core0UsageFunc = func(pid int) (float64, float64)

// RenderColocation draws the study.
func RenderColocation(res ColocationResult) string {
	t := report.NewTable(
		fmt.Sprintf("Process-filter study: data-caching + %d idle 4 MiB heaps", res.IdlerCount),
		"arm", "profiled_pids", "abit_ptes_walked", "abit_overhead_us", "busy_pages_seen")
	t.AddRow("filtered", fmt.Sprintf("%d/%d", res.ProfiledPIDs, res.TotalPIDs),
		res.FilteredPTEs, res.FilteredAbitNS/1000, res.FilteredBusyPages)
	t.AddRow("unfiltered", fmt.Sprintf("%d/%d", res.TotalPIDs, res.TotalPIDs),
		res.UnfilteredPTEs, res.UnfilteredAbitNS/1000, res.UnfilteredBusyPages)
	savings := 0.0
	if res.UnfilteredPTEs > 0 {
		savings = (1 - float64(res.FilteredPTEs)/float64(res.UnfilteredPTEs)) * 100
	}
	return t.Render() + fmt.Sprintf("\nFilter cuts A-bit walk work by %.0f%% while detection on the busy service is preserved.\n", savings)
}
