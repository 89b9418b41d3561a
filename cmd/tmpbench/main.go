// Command tmpbench regenerates every table and figure of the paper's
// evaluation and writes them under a results directory:
//
//	fig2.txt      PTW-to-cache-miss event ratios
//	table4.txt    pages captured per method and sampling rate (+CSV)
//	fig3.txt      IBS heatmaps (per-workload ASCII + CSV)
//	fig4.txt      A-bit heatmaps
//	fig5.txt      per-page access-count CDFs (+CSV points)
//	fig6.txt      tier-1 hitrates by policy/method/ratio (+CSV)
//	overhead.txt  §VI-B profiling overhead study
//	speedup.txt   §VI-C end-to-end speedups (emulated + native)
//	methods.txt   Table I quantified: TMP vs AutoNUMA vs BadgerTrap
//	colocation.txt  process-filter study under consolidation
//	epochsweep.txt  epoch-length sweep (the paper's 1 s choice)
//	multitier.txt   evidence mechanisms across 2-/3-/4-tier chains
//	bwcontend.txt   transactional migration under bandwidth admission control
//
// Usage:
//
//	tmpbench -out results                 # everything (several minutes)
//	tmpbench -exp fig6 -workloads gups    # one experiment, one workload
//	tmpbench -parallel 1                  # sequential cells (same bytes, slower)
//
// Every family runs at -refs references per simulated machine, and
// each machine runs on one goroutine. Independent experiment cells fan
// out on a bounded worker pool (-parallel, default GOMAXPROCS);
// results reassemble in submission order, so the emitted files are
// byte-identical at any width.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"tieredmem/internal/experiments"
	"tieredmem/internal/fault"
	"tieredmem/internal/report"
	"tieredmem/internal/runner"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/teleout"
	"tieredmem/internal/workload"
)

// experimentNames lists every -exp value but "all", in the order "all"
// runs them.
var experimentNames = []string{"fig2", "table4", "fig3", "fig4", "fig5", "fig6", "overhead", "speedup", "methods", "colocation", "epochsweep", "multitier", "bwcontend"}

func main() {
	var (
		out       = flag.String("out", "results", "output directory")
		exp       = flag.String("exp", "all", "experiment: all, "+strings.Join(experimentNames, ", "))
		refs      = flag.Int("refs", 8_000_000, "references per profiling run")
		seed      = flag.Int64("seed", 42, "workload seed")
		scale     = flag.Int("scale", 0, "footprint scale shift")
		period    = flag.Int("period", 16384, "base (default-rate) IBS op period")
		gating    = flag.Bool("gating", true, "enable HWPC gating")
		faults    = flag.String("faults", "", "fault-injection spec applied to every cell, e.g. 'ibs.drop=0.05,mem.enomem=0.2' or 'all=0.1' (see ROBUSTNESS.md)")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: all eight)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool width for independent experiment cells (1 = sequential; output is byte-identical at any setting)")
		stats     = flag.Bool("stats", true, "print per-experiment worker-pool stats to stderr")
		tracOut   = flag.String("trace", "", "write a Chrome trace_viewer JSON of every profiled cell (open in chrome://tracing or Perfetto)")
		evtsOut   = flag.String("events", "", "write the structured JSONL event log of every profiled cell")
		metrics   = flag.Bool("metrics", false, "write metrics.txt: per-cell virtual-time attribution plus host-side pool counters")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of this process")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile of this process")
	)
	flag.Parse()

	// A bad -faults spec is a usage error, not a runtime failure: the
	// parse error lists every valid site name, and exit code 2 plus the
	// flag usage matches what a mistyped flag produces. So is a -refs
	// or -period that is not positive, or a -scale below the workload
	// growth bound: the library would clamp such a period to 1 and
	// sample every op, and such a scale to the bound, without a word.
	// Every check runs before -cpuprofile creates its file, so a usage
	// error leaves none.
	if *refs <= 0 {
		usageFatal(fmt.Errorf("-refs %d: must be positive", *refs))
	}
	if *period <= 0 {
		usageFatal(fmt.Errorf("-period %d: must be positive", *period))
	}
	if *scale < -workload.MaxGrowShift {
		usageFatal(fmt.Errorf("-scale %d: must be at least %d (footprints grow at most %dx)", *scale, -workload.MaxGrowShift, 1<<workload.MaxGrowShift))
	}
	faultSpec, err := fault.ParseSpec(*faults)
	if err != nil {
		usageFatal(err)
	}
	names := experimentNames
	if *exp != "all" {
		if !slices.Contains(experimentNames, *exp) {
			usageFatal(fmt.Errorf("unknown experiment %q (all, %s)", *exp, strings.Join(experimentNames, ", ")))
		}
		names = []string{*exp}
	}
	opts := experiments.Options{
		Seed:       *seed,
		ScaleShift: *scale,
		Refs:       *refs,
		BasePeriod: *period,
		Gating:     *gating,
		Parallel:   *parallel,
		Trace:      *tracOut != "" || *evtsOut != "" || *metrics,
		Faults:     faultSpec,
	}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
		for _, name := range opts.Workloads {
			if _, err := workload.New(name, workload.Config{}); err != nil {
				usageFatal(err)
			}
		}
	}
	// internal/ packages keep the virtual-time discipline (no wall
	// clock under tmplint); main injects the monotonic clock the
	// runner's stats need.
	epoch := time.Now()
	opts.NowNS = func() int64 { return int64(time.Since(epoch)) }
	// Host-side (wall-clock) pool metrics live in their own registry,
	// never merged into the deterministic virtual-time streams.
	var hostReg telemetry.Registry
	statsHook := opts.OnRunnerStats
	if *metrics {
		statsHook = func(experiment string, s runner.Stats) {
			runner.RecordStats(&hostReg, experiment, s)
		}
	}
	if *stats {
		printStats := func(experiment string, s runner.Stats) {
			if s.Jobs == 0 {
				return
			}
			fmt.Fprintf(os.Stderr, "tmpbench: %s: %d cells on %d workers: wall=%s busy=%s maxqueue=%s speedup=%.2fx\n",
				experiment, s.Jobs, s.Workers,
				time.Duration(s.WallNS).Round(time.Millisecond),
				time.Duration(s.BusyNS).Round(time.Millisecond),
				time.Duration(maxQueueNS(s)).Round(time.Millisecond),
				s.Speedup())
			for _, js := range s.PerJob {
				fmt.Fprintf(os.Stderr, "tmpbench:   %-40s worker=%d queue=%-10s wall=%s\n",
					js.Name, js.Worker,
					time.Duration(js.QueueNS).Round(time.Millisecond),
					time.Duration(js.WallNS).Round(time.Millisecond))
			}
		}
		record := statsHook
		statsHook = func(experiment string, s runner.Stats) {
			if record != nil {
				record(experiment, s)
			}
			printStats(experiment, s)
		}
	}
	opts.OnRunnerStats = statsHook

	if *cpuProf != "" {
		stop, err := teleout.StartCPUProfile(*cpuProf)
		if err != nil {
			fatal(err)
		}
		stopProfile = stop
		defer stop()
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	suite := experiments.NewSuite(opts)

	runs := map[string]func() error{
		"fig2":       func() error { return runFig2(suite, *out) },
		"table4":     func() error { return runTable4(suite, *out) },
		"fig3":       func() error { return runFig3(suite, *out) },
		"fig4":       func() error { return runFig4(suite, *out) },
		"fig5":       func() error { return runFig5(suite, *out) },
		"fig6":       func() error { return runFig6(suite, *out) },
		"overhead":   func() error { return runOverhead(opts, *out) },
		"speedup":    func() error { return runSpeedup(opts, *out) },
		"methods":    func() error { return runMethods(opts, *out) },
		"colocation": func() error { return runColocation(opts, *out) },
		"epochsweep": func() error { return runEpochSweep(suite, *out) },
		"multitier":  func() error { return runMultiTier(opts, *out) },
		"bwcontend":  func() error { return runBWContend(opts, *out) },
	}

	for _, name := range names {
		fmt.Fprintf(os.Stderr, "tmpbench: running %s...\n", name)
		if err := runs[name](); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}

	if *tracOut != "" {
		if err := teleout.WriteTrace(*tracOut, suite.Traces()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tmpbench: wrote trace %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *tracOut)
	}
	if *evtsOut != "" {
		if err := teleout.WriteEvents(*evtsOut, suite.Traces()); err != nil {
			fatal(err)
		}
	}
	if *metrics {
		if err := writeFile(*out, "metrics.txt", renderMetrics(suite, &hostReg)); err != nil {
			fatal(err)
		}
	}
	if *memProf != "" {
		if err := teleout.WriteMemProfile(*memProf); err != nil {
			fatal(err)
		}
	}
}

// renderMetrics builds metrics.txt: one virtual-time attribution table
// per profiled cell (deterministic), then the host-side worker-pool
// counters (wall-clock; varies run to run by design).
func renderMetrics(suite *experiments.Suite, hostReg *telemetry.Registry) string {
	var b strings.Builder
	for _, cp := range suite.Captures() {
		if cp.Telemetry == nil {
			continue
		}
		rows := cp.Telemetry.Attribution(cp.Result.DurationNS, cp.Result.NumCores)
		b.WriteString(report.AttributionTable("Virtual-time attribution: "+cp.Label(), rows).Render())
		b.WriteString("\n\n")
		if dists := cp.Telemetry.Distributions(); len(dists) > 0 {
			b.WriteString(report.DistTable("Distributions: "+cp.Label(), dists).Render())
			b.WriteString("\n\n")
		}
		// Fault-attribution section: present only when a fault plane
		// registered its counters (a -faults run), deterministic like
		// the rest of the virtual-time stream.
		var fr []report.FaultRow
		for _, cv := range cp.Telemetry.Registry().Totals() {
			if strings.HasPrefix(cv.Name, "fault/") || strings.HasPrefix(cv.Name, "mover/failed") || strings.HasPrefix(cv.Name, "mover/retr") {
				fr = append(fr, report.FaultRow{Name: cv.Name, Value: cv.Value})
			}
		}
		if len(fr) > 0 {
			b.WriteString(report.FaultTable("Fault attribution: "+cp.Label(), fr).Render())
			b.WriteString("\n\n")
		}
	}
	if totals := hostReg.Totals(); len(totals) > 0 {
		t := report.NewTable("Host pool counters (wall clock; not deterministic)", "counter", "value")
		for _, cv := range totals {
			t.AddRow(cv.Name, cv.Value)
		}
		b.WriteString(t.Render())
		b.WriteString("\n")
	}
	return b.String()
}

// maxQueueNS is the longest any cell waited for a worker.
func maxQueueNS(s runner.Stats) int64 {
	var m int64
	for _, js := range s.PerJob {
		if js.QueueNS > m {
			m = js.QueueNS
		}
	}
	return m
}

func writeFile(dir, name, content string) error {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func runFig2(s *experiments.Suite, out string) error {
	rows, err := experiments.Fig2(s)
	if err != nil {
		return err
	}
	return writeFile(out, "fig2.txt", experiments.RenderFig2(rows))
}

func runTable4(s *experiments.Suite, out string) error {
	res, err := experiments.Table4(s)
	if err != nil {
		return err
	}
	if err := writeFile(out, "table4.txt", experiments.RenderTable4(res)); err != nil {
		return err
	}
	csv := report.NewTable("", "workload", "rate", "abit", "ibs", "both")
	for _, row := range res.Rows {
		for _, rate := range experiments.Rates {
			c := row.ByRate[rate]
			csv.AddRow(row.Workload, experiments.RateName(rate), c.Abit, c.IBS, c.Both)
		}
	}
	return writeFile(out, "table4.csv", csv.CSV())
}

func runFig3(s *experiments.Suite, out string) error {
	maps, err := experiments.Fig3(s)
	if err != nil {
		return err
	}
	if err := writeFile(out, "fig3.txt",
		experiments.RenderHeatmaps("Fig. 3: IBS (4x) access heatmaps", maps)); err != nil {
		return err
	}
	var b strings.Builder
	for _, m := range maps {
		fmt.Fprintf(&b, "# workload=%s\n%s", m.Workload, m.Grid.CSV())
	}
	return writeFile(out, "fig3.csv", b.String())
}

func runFig4(s *experiments.Suite, out string) error {
	maps, err := experiments.Fig4(s)
	if err != nil {
		return err
	}
	if err := writeFile(out, "fig4.txt",
		experiments.RenderHeatmaps("Fig. 4: A-bit access heatmaps", maps)); err != nil {
		return err
	}
	var b strings.Builder
	for _, m := range maps {
		fmt.Fprintf(&b, "# workload=%s\n%s", m.Workload, m.Grid.CSV())
	}
	return writeFile(out, "fig4.csv", b.String())
}

func runFig5(s *experiments.Suite, out string) error {
	series, err := experiments.Fig5(s)
	if err != nil {
		return err
	}
	if err := writeFile(out, "fig5.txt", experiments.RenderFig5(series)); err != nil {
		return err
	}
	return writeFile(out, "fig5.csv", experiments.Fig5CSV(series))
}

func runFig6(s *experiments.Suite, out string) error {
	res, err := experiments.Fig6(s)
	if err != nil {
		return err
	}
	if err := writeFile(out, "fig6.txt", experiments.RenderFig6(res)); err != nil {
		return err
	}
	csv := report.NewTable("", "workload", "policy", "method", "ratio", "hitrate")
	for _, pt := range res.Points {
		csv.AddRow(pt.Workload, pt.Policy, pt.Method.String(), pt.Ratio, pt.Hitrate)
	}
	return writeFile(out, "fig6.csv", csv.CSV())
}

func runOverhead(opts experiments.Options, out string) error {
	rows, err := experiments.Overhead(opts)
	if err != nil {
		return err
	}
	return writeFile(out, "overhead.txt", experiments.RenderOverhead(rows))
}

func runSpeedup(opts experiments.Options, out string) error {
	res, err := experiments.Speedup(opts)
	if err != nil {
		return err
	}
	return writeFile(out, "speedup.txt", experiments.RenderSpeedup(res))
}

func runMethods(opts experiments.Options, out string) error {
	rows, err := experiments.MethodsComparison(opts)
	if err != nil {
		return err
	}
	return writeFile(out, "methods.txt", experiments.RenderMethods(rows))
}

func runColocation(opts experiments.Options, out string) error {
	res, err := experiments.Colocation(opts, 16)
	if err != nil {
		return err
	}
	return writeFile(out, "colocation.txt", experiments.RenderColocation(res))
}

func runMultiTier(opts experiments.Options, out string) error {
	rows, err := experiments.MultiTier(opts)
	if err != nil {
		return err
	}
	return writeFile(out, "multitier.txt", experiments.RenderMultiTier(rows))
}

func runBWContend(opts experiments.Options, out string) error {
	rows, err := experiments.BWContend(opts)
	if err != nil {
		return err
	}
	return writeFile(out, "bwcontend.txt", experiments.RenderBWContend(rows))
}

func runEpochSweep(s *experiments.Suite, out string) error {
	rows, err := experiments.EpochSweep(s, nil)
	if err != nil {
		return err
	}
	return writeFile(out, "epochsweep.txt", experiments.RenderEpochSweep(rows))
}

// stopProfile ends the CPU profile once one has started.
var stopProfile = func() {}

// fatal reports a runtime failure and exits 1. os.Exit skips deferred
// calls, so fatal ends a running CPU profile itself: the file it
// leaves is a whole profile, not an empty one.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tmpbench:", err)
	stopProfile()
	os.Exit(1)
}

// usageFatal reports a flag-value error the way the flag package
// reports an unknown flag: message, usage, exit 2.
func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, "tmpbench:", err)
	flag.Usage()
	os.Exit(2)
}
