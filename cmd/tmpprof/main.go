// Command tmpprof profiles one Table III workload with TMP on the
// simulated machine and prints what the profiler saw: detection
// counts, the hottest pages, access heatmaps, and per-mechanism
// overhead.
//
// Usage:
//
//	tmpprof -workload gups -refs 6000000 -rate 4x -heatmap
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tieredmem/internal/core"
	"tieredmem/internal/experiments"
	"tieredmem/internal/ibs"
	"tieredmem/internal/report"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/teleout"
	"tieredmem/internal/workload"
)

func main() {
	var (
		name    = flag.String("workload", "gups", "workload name: "+strings.Join(append(append([]string{}, workload.Names...), "phase-shift"), ", "))
		refs    = flag.Int("refs", 6_000_000, "memory references to execute")
		rateStr = flag.String("rate", "4x", "IBS sampling rate: default, 4x, or 8x")
		seed    = flag.Int64("seed", 42, "workload seed")
		scale   = flag.Int("scale", 0, "footprint scale shift (positive shrinks)")
		period  = flag.Int("period", 16384, "base (default-rate) IBS op period")
		gating  = flag.Bool("gating", true, "enable HWPC gating of profilers")
		heat    = flag.Bool("heatmap", false, "print IBS and A-bit heatmaps")
		topN    = flag.Int("top", 10, "hottest pages to list")
		tracOut = flag.String("trace", "", "write a Chrome trace_viewer JSON (virtual-time flamegraph; open in chrome://tracing or Perfetto)")
		evtsOut = flag.String("events", "", "write the structured JSONL event log")
		metrics = flag.Bool("metrics", false, "print the per-subsystem virtual-time attribution table")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of this process")
		memProf = flag.String("memprofile", "", "write a pprof heap profile of this process")
	)
	flag.Parse()

	// A bad -rate, a -refs or -period that is not positive, or a
	// -scale below the workload growth bound is a usage error reported
	// before anything is profiled: exit code 2 plus the flag usage, as
	// for a mistyped flag. A typoed rate would profile at some other
	// rate, a period below 1 would sample every op, and a smaller
	// scale would run the bound's footprint; each would invalidate
	// every number printed.
	rate, err := experiments.ParseRate(*rateStr)
	if err != nil {
		usageFatal(err)
	}
	if *refs <= 0 {
		usageFatal(fmt.Errorf("-refs %d: must be positive", *refs))
	}
	if *period <= 0 {
		usageFatal(fmt.Errorf("-period %d: must be positive", *period))
	}
	if *scale < -workload.MaxGrowShift {
		usageFatal(fmt.Errorf("-scale %d: must be at least %d (footprints grow at most %dx)", *scale, -workload.MaxGrowShift, 1<<workload.MaxGrowShift))
	}
	if *cpuProf != "" {
		stop, err := teleout.StartCPUProfile(*cpuProf)
		if err != nil {
			fatal(err)
		}
		stopProfile = stop
		defer stop()
	}
	opts := experiments.Options{
		Seed:       *seed,
		ScaleShift: *scale,
		Refs:       *refs,
		BasePeriod: *period,
		Gating:     *gating,
		Workloads:  []string{*name},
		Trace:      *tracOut != "" || *evtsOut != "" || *metrics,
	}
	cp, err := experiments.Profile(opts, *name, rate)
	if err != nil {
		fatal(err)
	}

	res := cp.Result
	fmt.Printf("workload=%s rate=%s refs=%d duration=%.2fms epochs=%d\n",
		*name, experiments.RateName(rate), res.Refs, float64(res.DurationNS)/1e6, len(res.Epochs))
	fmt.Printf("detected pages: abit=%d (leaf PTEs), ibs=%d (4KiB), both=%d\n",
		len(cp.AbitPages), len(cp.IBSPages), cp.Both())
	fmt.Printf("faults: minor=%d huge=%d; PTW events=%d, LLC misses=%d\n",
		res.MinorFaults, res.HugeFaults, cp.STLBMisses, cp.LLCMisses)
	cpuTime := float64(res.DurationNS) * float64(res.NumCores)
	fmt.Printf("profiling overhead: ibs=%.3f%% abit=%.3f%% hwpc=%.3f%% (of %d-core time)\n",
		float64(res.IBSOverheadNS)/cpuTime*100,
		float64(res.AbitOverheadNS)/cpuTime*100,
		float64(res.HWPCOverheadNS)/cpuTime*100,
		res.NumCores)

	// Hottest pages by the combined rank, summed over epochs.
	all := core.SumEpochs(res.Epochs)
	ranked := core.RankedPages(all, core.MethodCombined)
	tab := report.NewTable(fmt.Sprintf("\nTop %d pages by TMP combined rank", *topN),
		"pid", "vpn", "abit", "ibs", "rank", "true_mem_accesses")
	for i := 0; i < len(ranked) && i < *topN; i++ {
		ps := ranked[i]
		tab.AddRow(ps.Key.PID, fmt.Sprintf("%#x", uint64(ps.Key.VPN)), ps.Abit, ps.Trace,
			ps.Rank(core.MethodCombined), ps.True)
	}
	fmt.Println(tab.Render())

	if opts.Trace {
		runs := []telemetry.Labeled{{
			Label:  fmt.Sprintf("%s@%s", *name, experiments.RateName(rate)),
			Tracer: cp.Telemetry,
		}}
		if *metrics {
			rows := cp.Telemetry.Attribution(res.DurationNS, res.NumCores)
			fmt.Println(report.AttributionTable("\nVirtual-time attribution", rows).Render())
			if dists := cp.Telemetry.Distributions(); len(dists) > 0 {
				fmt.Println(report.DistTable("\nDistributions", dists).Render())
			}
		}
		if *tracOut != "" {
			if err := teleout.WriteTrace(*tracOut, runs); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "tmpprof: wrote trace %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *tracOut)
		}
		if *evtsOut != "" {
			if err := teleout.WriteEvents(*evtsOut, runs); err != nil {
				fatal(err)
			}
		}
	}

	if *heat {
		s := experiments.NewSuite(opts)
		// Reuse the capture we already have when rates match.
		if rate == ibs.Rate4x {
			f3, err := experiments.Fig3(s)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderHeatmaps("IBS sample heatmap (Fig. 3 style)", f3))
			f4, err := experiments.Fig4(s)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderHeatmaps("A-bit heatmap (Fig. 4 style)", f4))
		} else {
			fmt.Fprintln(os.Stderr, "tmpprof: -heatmap renders at the 4x rate; rerun with -rate 4x")
		}
	}

	if *memProf != "" {
		if err := teleout.WriteMemProfile(*memProf); err != nil {
			fatal(err)
		}
	}
}

// stopProfile ends the CPU profile once one has started.
var stopProfile = func() {}

// fatal reports a runtime failure and exits 1. os.Exit skips deferred
// calls, so fatal ends a running CPU profile itself: the file it
// leaves is a whole profile, not an empty one.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tmpprof:", err)
	stopProfile()
	os.Exit(1)
}

// usageFatal reports a flag-value error the way the flag package
// reports an unknown flag: message, usage, exit 2.
func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, "tmpprof:", err)
	flag.Usage()
	os.Exit(2)
}
