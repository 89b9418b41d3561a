// Command tmptrace captures a TMP profiling run's IBS/PEBS sample
// stream to the library's binary trace format, and analyzes saved
// traces offline: summary statistics, per-page access CDF, and a
// time-by-address heatmap — the postmortem half of the profiling
// pipeline, so a run can be captured once and re-analyzed without
// re-simulation.
//
// Usage:
//
//	tmptrace -capture -workload xsbench -refs 6000000 -o xsbench.tmp
//	tmptrace -capture -workload gups -events events.jsonl -metrics
//	tmptrace -analyze xsbench.tmp
//	tmptrace -analyze xsbench.tmp -heatmap
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"tieredmem/internal/experiments"
	"tieredmem/internal/mem"
	"tieredmem/internal/report"
	"tieredmem/internal/stats"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/teleout"
	"tieredmem/internal/trace"
)

func main() {
	var (
		capture = flag.Bool("capture", false, "profile a workload and write its sample stream")
		analyze = flag.String("analyze", "", "trace file to analyze")
		name    = flag.String("workload", "gups", "workload to capture")
		refs    = flag.Int("refs", 6_000_000, "references to execute during capture")
		rateStr = flag.String("rate", "4x", "sampling rate: default, 4x, 8x")
		seed    = flag.Int64("seed", 42, "workload seed")
		out     = flag.String("o", "trace.tmp", "output trace path for -capture")
		heat    = flag.Bool("heatmap", false, "render a heatmap during -analyze")
		topN    = flag.Int("top", 10, "hottest pages to list during -analyze")
		tracOut = flag.String("trace", "", "write a Chrome trace_viewer JSON of the capture run (open in chrome://tracing or Perfetto)")
		evtsOut = flag.String("events", "", "write the capture run's structured JSONL event log")
		metrics = flag.Bool("metrics", false, "print the capture run's per-subsystem virtual-time attribution table")
	)
	flag.Parse()

	// A bad -rate, or a -capture with a -refs that is not positive, is a
	// usage error reported before anything is profiled: message, usage,
	// exit 2, as for a mistyped flag.
	rate, err := experiments.ParseRate(*rateStr)
	if err != nil {
		usageFatal(err)
	}
	switch {
	case *capture:
		if *refs <= 0 {
			usageFatal(fmt.Errorf("-refs %d: must be positive", *refs))
		}
		if err := doCapture(*name, *refs, rate, *seed, *out, *tracOut, *evtsOut, *metrics); err != nil {
			fatal(err)
		}
	case *analyze != "":
		if err := doAnalyze(*analyze, *heat, *topN); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "tmptrace: pass -capture or -analyze FILE")
		os.Exit(2)
	}
}

func doCapture(name string, refs, rate int, seed int64, out, tracOut, evtsOut string, metrics bool) error {
	opts := experiments.Options{
		Seed:       seed,
		Refs:       refs,
		BasePeriod: 16384,
		Gating:     true,
		Workloads:  []string{name},
		Trace:      tracOut != "" || evtsOut != "" || metrics,
	}
	cp, err := experiments.Profile(opts, name, rate)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	for i := range cp.IBSSamples {
		if err := w.Write(cp.IBSSamples[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("captured %d samples from %s (%.1f virtual ms) to %s\n",
		w.Count(), name, float64(cp.Result.DurationNS)/1e6, out)
	if opts.Trace {
		runs := []telemetry.Labeled{{Label: cp.Label(), Tracer: cp.Telemetry}}
		if metrics {
			rows := cp.Telemetry.Attribution(cp.Result.DurationNS, cp.Result.NumCores)
			fmt.Println(report.AttributionTable("\nVirtual-time attribution", rows).Render())
			if dists := cp.Telemetry.Distributions(); len(dists) > 0 {
				fmt.Println(report.DistTable("\nDistributions", dists).Render())
			}
		}
		if tracOut != "" {
			if err := teleout.WriteTrace(tracOut, runs); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "tmptrace: wrote trace %s (open in chrome://tracing or https://ui.perfetto.dev)\n", tracOut)
		}
		if evtsOut != "" {
			if err := teleout.WriteEvents(evtsOut, runs); err != nil {
				return err
			}
		}
	}
	return nil
}

func doAnalyze(path string, heat bool, topN int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	samples, err := r.ReadAll()
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("trace %s holds no samples", path)
	}

	type key struct {
		pid int
		vpn mem.VPN
	}
	perPage := map[key]uint64{}
	var loads, stores, tier2 uint64
	var tMin, tMax int64 = samples[0].Now, samples[0].Now
	var aMax uint64
	for i := range samples {
		s := &samples[i]
		perPage[key{s.PID, mem.VPNOf(s.VAddr)}]++
		if s.Kind == trace.Store {
			stores++
		} else {
			loads++
		}
		if s.Source == trace.SrcTier2 {
			tier2++
		}
		if s.Now < tMin {
			tMin = s.Now
		}
		if s.Now > tMax {
			tMax = s.Now
		}
		if s.PAddr > aMax {
			aMax = s.PAddr
		}
	}
	fmt.Printf("%d samples, %d distinct pages, %d loads / %d stores, %d tier-2 sourced\n",
		len(samples), len(perPage), loads, stores, tier2)
	fmt.Printf("span: %.2f virtual ms\n", float64(tMax-tMin)/1e6)

	counts := make([]uint64, 0, len(perPage))
	for _, c := range perPage {
		counts = append(counts, c)
	}
	fmt.Printf("per-page samples: %v\n", stats.Summarize(counts))

	type kv struct {
		k key
		v uint64
	}
	ranked := make([]kv, 0, len(perPage))
	for k, v := range perPage {
		ranked = append(ranked, kv{k, v})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].v != ranked[j].v {
			return ranked[i].v > ranked[j].v
		}
		if ranked[i].k.pid != ranked[j].k.pid {
			return ranked[i].k.pid < ranked[j].k.pid
		}
		return ranked[i].k.vpn < ranked[j].k.vpn
	})
	fmt.Printf("\nhottest %d pages by sample count:\n", topN)
	for i := 0; i < len(ranked) && i < topN; i++ {
		fmt.Printf("  pid=%d vpn=%#x samples=%d\n",
			ranked[i].k.pid, uint64(ranked[i].k.vpn), ranked[i].v)
	}

	if heat {
		h := stats.NewHeatmap(64, 24, tMin, tMax+1, 0, aMax+mem.PageSize)
		for i := range samples {
			h.Add(samples[i].Now, samples[i].PAddr, 1)
		}
		fmt.Printf("\nheatmap (x: time ->, y: physical address ^):\n%s", h.Render())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tmptrace:", err)
	os.Exit(1)
}

// usageFatal reports a flag-value error the way the flag package
// reports an unknown flag: message, usage, exit 2.
func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, "tmptrace:", err)
	flag.Usage()
	os.Exit(2)
}
