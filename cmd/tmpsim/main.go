// Command tmpsim runs end-to-end tiered-memory placement: one workload
// on a machine whose fast tier holds only a fraction of the footprint,
// comparing a placement arm (TMP-driven History/Decay policy) against
// the first-come-first-allocate baseline, optionally under the
// BadgerTrap emulation cost model.
//
// Usage:
//
//	tmpsim -workload data-caching -ratio 16 -policy history -method tmp
//	tmpsim -workload phase-shift -ratio 8 -emul
//
// The two arms are independent simulations and run concurrently on a
// bounded worker pool (-parallel, default GOMAXPROCS; 1 restores the
// sequential path). Output is identical at any width.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tieredmem/internal/core"
	"tieredmem/internal/emul"
	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/policy"
	"tieredmem/internal/provenance"
	"tieredmem/internal/report"
	"tieredmem/internal/runner"
	"tieredmem/internal/sim"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/teleout"
	"tieredmem/internal/workload"
)

func main() {
	var (
		name     = flag.String("workload", "data-caching", "workload name (Table III, phase-shift or write-split)")
		refs     = flag.Int("refs", 6_000_000, "memory references to execute")
		ratio    = flag.Int("ratio", 16, "footprint:fast-tier capacity ratio")
		polName  = flag.String("policy", "history", "placement policy: history, decay, none (baseline only)")
		method   = flag.String("method", "tmp", "profiling evidence: abit, ibs, tmp, devprof (devprof needs a device tier)")
		tiers    = flag.String("tiers", "", "tier chain: a depth (2-4, workload-sized) or an explicit spec like 'dram:1024/cxl:2048:140:180:dev/nvm:8192'; device tiers get the device-side tracker; empty means depth 2 sized from -ratio for each machine")
		seed     = flag.Int64("seed", 42, "workload seed")
		scale    = flag.Int("scale", 0, "footprint scale shift")
		period   = flag.Int("period", 4096, "IBS op period (4x-rate scaled default)")
		useEmul  = flag.Bool("emul", false, "apply the BadgerTrap emulation cost model (10us/13us/50us)")
		txmig    = flag.Bool("txmig", false, "transactional migration engine: multi-phase copy-while-mapped transactions that abort on mid-copy writes, plus zero-copy shadow demotions (see ROBUSTNESS.md)")
		admfrac  = flag.Float64("admission", 0, "bandwidth admission control: fraction of each epoch's simulated time migrations may spend on line traffic (0 disables; denied migrations defer or reject deterministically)")
		faults   = flag.String("faults", "", "fault-injection spec, e.g. 'ibs.drop=0.05,mem.enomem=0.2' or 'all=0.1' (see ROBUSTNESS.md); same seed + same spec reproduces the run byte-for-byte")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool width for the baseline/placement arms (1 = sequential; output is identical)")
		tracOut  = flag.String("trace", "", "write a Chrome trace_viewer JSON (virtual-time flamegraph; open in chrome://tracing or Perfetto)")
		evtsOut  = flag.String("events", "", "write the structured JSONL event log")
		metrics  = flag.Bool("metrics", false, "print per-subsystem virtual-time attribution, distribution, and provenance-summary tables")
		provOut  = flag.String("prov", "", "write the decision-provenance JSONL log (per-page per-epoch evidence, rank, verdict; audit with tmpwhy)")
		why      = flag.String("why", "", "print one page's decision timeline after the run, as pid:vpn (vpn in hex or decimal), e.g. 100:0x2a7")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of this process")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile of this process")
	)
	flag.Parse()

	if *cpuProf != "" {
		stop, err := teleout.StartCPUProfile(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer stop()
	}
	traceOn := *tracOut != "" || *evtsOut != "" || *metrics
	provOn := *provOut != "" || *why != "" || *metrics

	var whyKey core.PageKey
	if *why != "" {
		var err error
		whyKey, err = provenance.ParsePageKey(*why)
		if err != nil {
			fatal(err)
		}
	}

	// A bad -method, -faults, -policy, -workload or -tiers value is a
	// usage error, not a runtime failure: exit code 2 plus the flag
	// usage matches what a mistyped flag produces. So is a -refs,
	// -period or -ratio that is not positive, a -admission that is not
	// a finite fraction, and -method devprof with no device tier.
	if *refs <= 0 {
		usageFatal(fmt.Errorf("-refs %d: must be positive", *refs))
	}
	if *period <= 0 {
		usageFatal(fmt.Errorf("-period %d: must be positive", *period))
	}
	if *ratio <= 0 {
		usageFatal(fmt.Errorf("-ratio %d: must be positive", *ratio))
	}
	if math.IsNaN(*admfrac) || math.IsInf(*admfrac, 0) {
		usageFatal(fmt.Errorf("-admission %v: must be a finite fraction", *admfrac))
	}
	m, err := core.ParseMethod(*method)
	if err != nil {
		usageFatal(err)
	}
	faultSpec, err := fault.ParseSpec(*faults)
	if err != nil {
		usageFatal(err)
	}
	// Policies may be stateful (Decay keeps per-page scores), but only
	// the policy arm runs one.
	var pol policy.Policy
	switch *polName {
	case "history":
		pol = policy.History{}
	case "decay":
		pol = policy.NewDecay(0.5)
	case "none":
	default:
		usageFatal(fmt.Errorf("unknown policy %q (history, decay, none)", *polName))
	}

	wcfg := workload.Config{Seed: *seed, ScaleShift: *scale, FirstPID: 100}
	if _, err := workload.New(*name, wcfg); err != nil {
		usageFatal(err)
	}
	mk := func() workload.Workload { return workload.MustNew(*name, wcfg) }

	// -tiers accepts either a chain depth (sized for the workload from
	// -ratio) or a full spec; empty leaves each machine to size its own
	// 2-tier chain.
	var chain mem.TierChain
	if *tiers != "" {
		var cerr error
		if n, aerr := strconv.Atoi(*tiers); aerr == nil {
			chain, cerr = sim.DefaultChain(mk(), *ratio, n)
		} else {
			chain, cerr = mem.ParseTierChain(*tiers)
		}
		if cerr != nil {
			usageFatal(fmt.Errorf("-tiers %q: %w", *tiers, cerr))
		}
	}
	if m == core.MethodDev && !chain.HasDevice() {
		usageFatal(fmt.Errorf("method devprof needs a device tier (pass -tiers 3, -tiers 4, or a spec with a ':dev' tier)"))
	}

	var costs *emul.Costs
	if *useEmul {
		c := emul.PaperCosts(0)
		costs = &c
	}

	// Each arm is one self-contained single-goroutine simulation (its
	// own workload built from the seed); the arms fan out on the runner
	// pool and results come back in submission order. Each arm owns a
	// private tracer, fault plane and recorder, never shared across
	// goroutines, so runs[i], planes[i] and recorders[i] are arm i's,
	// and the report and every exported file are byte-identical at any
	// -parallel width.
	var runs []telemetry.Labeled
	var planes []*fault.Plane
	var recorders []*provenance.Recorder
	var jobs []runner.Job[sim.PlacementResult]
	arm := func(label string, p policy.Policy) {
		var tr *telemetry.Tracer
		if traceOn {
			tr = telemetry.New()
			runs = append(runs, telemetry.Labeled{Label: label, Tracer: tr})
		}
		// Each arm derives its plane from the same seed + spec.
		var fp *fault.Plane
		if !faultSpec.Zero() {
			fp = fault.New(faultSpec, *seed)
		}
		planes = append(planes, fp)
		// The baseline arm has no policy to decide anything, so only
		// policy arms record provenance.
		var rec *provenance.Recorder
		if provOn && p != nil {
			rec = provenance.New()
		}
		recorders = append(recorders, rec)
		jobs = append(jobs, runner.Job[sim.PlacementResult]{Name: label, Run: func() (sim.PlacementResult, error) {
			cfg := sim.DefaultPlacementConfig(mk(), *period, *refs, *ratio, p, m)
			cfg.Tiers = chain
			cfg.TMP.EnableDevProf = chain.HasDevice()
			cfg.EmulCosts = costs
			cfg.TxMigration = *txmig
			cfg.AdmissionFrac = *admfrac
			cfg.Tracer = tr
			cfg.Faults = fp
			cfg.Prov = rec
			return sim.RunPlacement(cfg, mk())
		}})
	}
	arm("baseline", nil)
	if pol != nil {
		arm(*polName, pol)
	}
	epoch := time.Now()
	results, stats, err := runner.Run(runner.Config{
		Workers: *parallel,
		NowNS:   func() int64 { return int64(time.Since(epoch)) },
	}, jobs)
	if err != nil {
		fatal(err)
	}
	if pol != nil {
		fmt.Fprintf(os.Stderr, "tmpsim: %d arms on %d workers: wall=%s busy=%s\n",
			stats.Jobs, stats.Workers,
			time.Duration(stats.WallNS).Round(time.Millisecond),
			time.Duration(stats.BusyNS).Round(time.Millisecond))
	}
	// Provenance logs are labeled like telemetry runs, in submission
	// order.
	var provLogs []provenance.Log
	for i, rec := range recorders {
		if rec.Enabled() {
			provLogs = append(provLogs, rec.Snapshot(jobs[i].Name))
		}
	}

	base := results[0]
	if chain != nil {
		fmt.Printf("tier chain: %s\n", chain)
	}
	fmt.Printf("baseline (first-touch): duration=%.2fms hitrate=%.3f mem_accesses=%d\n",
		float64(base.DurationNS)/1e6, base.Hitrate(), base.MemAccesses)

	if pol != nil {
		placed := results[1]
		fmt.Printf("%s: duration=%.2fms hitrate=%.3f promotions=%d demotions=%d\n",
			placed.Arm, float64(placed.DurationNS)/1e6, placed.Hitrate(), placed.Promotions, placed.Demotions)
		if costs != nil {
			fmt.Printf("emulation: injected=%.2fms over %d protection faults\n",
				float64(placed.EmulInjected)/1e6, placed.EmulFaults)
		}
		fmt.Printf("speedup over first-touch: %.3fx\n",
			float64(base.DurationNS)/float64(placed.DurationNS))
	}

	if !faultSpec.Zero() {
		// Fault-attribution section: what the plane injected into each
		// arm and how the mover/profiler absorbed it. Same seed + same
		// spec reproduces these numbers exactly.
		for i, r := range results {
			tab := report.FaultTable(
				fmt.Sprintf("\nFault attribution (%s, spec %q): %s", jobs[i].Name, faultSpec, r.Arm),
				sim.FaultAttribution([]*fault.Plane{planes[i]}, r))
			fmt.Println(tab.Render())
			if len(r.Quarantined) > 0 {
				fmt.Printf("quarantined: %s\n", strings.Join(r.Quarantined, ", "))
			}
		}
	}

	if *metrics {
		for i, r := range runs {
			// Each run's spans normalize against its arm's duration.
			rows := r.Tracer.Attribution(results[i].DurationNS, results[i].NumCores)
			tab := report.AttributionTable(fmt.Sprintf("\nVirtual-time attribution: %s", r.Label), rows)
			fmt.Println(tab.Render())
			if dists := r.Tracer.Distributions(); len(dists) > 0 {
				fmt.Println(report.DistTable(fmt.Sprintf("\nDistributions: %s", r.Label), dists).Render())
			}
		}
		for i := range provLogs {
			lg := &provLogs[i]
			fmt.Println()
			fmt.Println(provenance.SummaryTable(lg).Render())
			fmt.Println(provenance.PingPongTable(lg, 10).Render())
			fmt.Println(provenance.DecisiveTable(lg).Render())
		}
	}
	if *why != "" {
		found := false
		for i := range provLogs {
			if pg := provLogs[i].Find(whyKey); pg != nil {
				fmt.Println()
				fmt.Println(provenance.TimelineTable(pg).Render())
				found = true
			}
		}
		if !found {
			fatal(fmt.Errorf("-why %s: page pid=%d vpn=%#x has no provenance records (never harvested or moved in any policy arm)",
				*why, whyKey.PID, uint64(whyKey.VPN)))
		}
	}
	if *provOut != "" {
		if err := teleout.WriteProvenance(*provOut, provLogs); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tmpsim: wrote provenance log %s (audit with tmpwhy -log %s)\n", *provOut, *provOut)
	}
	if *tracOut != "" {
		if err := teleout.WriteTrace(*tracOut, runs); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tmpsim: wrote trace %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *tracOut)
	}
	if *evtsOut != "" {
		if err := teleout.WriteEvents(*evtsOut, runs); err != nil {
			fatal(err)
		}
	}
	if *memProf != "" {
		if err := teleout.WriteMemProfile(*memProf); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tmpsim:", err)
	os.Exit(1)
}

// usageFatal reports a flag-value error the way the flag package
// reports an unknown flag: message, usage, exit 2.
func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, "tmpsim:", err)
	flag.Usage()
	os.Exit(2)
}
