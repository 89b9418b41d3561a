package tieredmem_test

// The benchmark harness: one testing.B per table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`), plus
// component micro-benchmarks for the simulator's hot paths. The
// experiment benches use reduced reference counts so a full sweep
// finishes in minutes; cmd/tmpbench runs the full-size versions and
// writes the rendered tables under results/.

import (
	"fmt"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/cpu"
	"tieredmem/internal/experiments"
	"tieredmem/internal/ibs"
	"tieredmem/internal/mem"
	"tieredmem/internal/policy"
	"tieredmem/internal/provenance"
	"tieredmem/internal/sim"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/trace"
	"tieredmem/internal/workload"
)

// benchOpts shrinks experiment runs to benchmark-friendly sizes while
// keeping every workload in play.
func benchOpts() experiments.Options {
	o := experiments.DefaultOptions()
	o.Refs = 2_000_000
	return o
}

// BenchmarkFig2PTWToCacheMissRatio regenerates Fig. 2: the ratio of
// page-walk (A-bit-setting) events to the cache-miss events trace
// sampling draws from, for all eight workloads.
func BenchmarkFig2PTWToCacheMissRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchOpts())
		rows, err := experiments.Fig2(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFig2(rows))
		}
	}
}

// BenchmarkTable4DetectedPages regenerates Table IV: pages captured by
// A-bit vs IBS profiling at the default, 4x, and 8x sampling rates,
// plus the §VI-A rate-gain aggregates.
func BenchmarkTable4DetectedPages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchOpts())
		res, err := experiments.Table4(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderTable4(res))
		}
	}
}

// BenchmarkFig3IBSHeatmap regenerates the Fig. 3 heatmaps (IBS samples
// over time x physical address at the 4x rate).
func BenchmarkFig3IBSHeatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchOpts())
		maps, err := experiments.Fig3(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			total := 0
			for _, m := range maps {
				total += m.Grid.Nonzero()
			}
			b.Logf("8 heatmaps, %d nonzero cells", total)
		}
	}
}

// BenchmarkFig4AbitHeatmap regenerates the Fig. 4 heatmaps (A-bit
// observations).
func BenchmarkFig4AbitHeatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchOpts())
		maps, err := experiments.Fig4(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			total := 0
			for _, m := range maps {
				total += m.Grid.Nonzero()
			}
			b.Logf("8 heatmaps, %d nonzero cells", total)
		}
	}
}

// BenchmarkFig5CDF regenerates the Fig. 5 per-page access-count CDFs
// per method and sampling rate.
func BenchmarkFig5CDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchOpts())
		series, err := experiments.Fig5(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFig5(series))
		}
	}
}

// BenchmarkFig6Hitrate regenerates Fig. 6: tier-1 hitrate for
// {Oracle, History} x {A-bit, IBS, TMP} x ratios 1/8..1/128.
func BenchmarkFig6Hitrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchOpts())
		res, err := experiments.Fig6(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFig6(res))
		}
	}
}

// BenchmarkOverheadProfiling regenerates the §VI-B overhead study:
// end-to-end runtime deltas for A-bit walks, IBS at default/4x, and
// the fully gated TMP configuration. One workload per arm keeps the
// bench tractable; cmd/tmpbench sweeps all eight.
func BenchmarkOverheadProfiling(b *testing.B) {
	opts := benchOpts()
	opts.Workloads = []string{"gups", "web-serving"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Overhead(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderOverhead(rows))
		}
	}
}

// BenchmarkEndToEndSpeedup regenerates the §VI-C speedup study for a
// representative subset (full sweep in cmd/tmpbench).
func BenchmarkEndToEndSpeedup(b *testing.B) {
	opts := benchOpts()
	opts.Workloads = []string{"data-caching", "xsbench"}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Speedup(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderSpeedup(res))
		}
	}
}

// BenchmarkMethodsComparison regenerates the Table-I-quantified
// profiler comparison (TMP vs AutoNUMA vs BadgerTrap) on two
// representative workloads.
func BenchmarkMethodsComparison(b *testing.B) {
	opts := benchOpts()
	opts.Workloads = []string{"data-caching", "gups"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MethodsComparison(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderMethods(rows))
		}
	}
}

// --- Ablation benches for the design decisions DESIGN.md calls out ---

// BenchmarkAblationShootdown compares A-bit scanning with and without
// the TLB shootdown the paper's third optimization omits.
func BenchmarkAblationShootdown(b *testing.B) {
	for _, shootdown := range []bool{false, true} {
		b.Run(fmt.Sprintf("shootdown=%v", shootdown), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := workload.MustNew("data-caching", workload.Config{Seed: 5, FirstPID: 100})
				cfg := sim.DefaultConfig(w, 4096, 1_500_000)
				cfg.TMP.Abit.Shootdown = shootdown
				r, err := sim.New(cfg, w)
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.Run()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("duration=%.2fms abitOverhead=%.3fms",
						float64(res.DurationNS)/1e6, float64(res.AbitOverheadNS)/1e6)
				}
			}
		})
	}
}

// BenchmarkAblationGatingThreshold sweeps the HWPC gating threshold
// (the paper uses 20%) on a phase-structured workload.
func BenchmarkAblationGatingThreshold(b *testing.B) {
	for _, thr := range []float64{0, 0.2, 0.5, 0.8} {
		b.Run(fmt.Sprintf("threshold=%.1f", thr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := workload.MustNew("lulesh", workload.Config{Seed: 5, FirstPID: 100})
				cfg := sim.DefaultConfig(w, 4096, 1_500_000)
				cfg.TMP.Gating = thr > 0
				cfg.TMP.HWPC.Threshold = thr
				r, err := sim.New(cfg, w)
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.Run()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("overhead=%.3f%%", res.OverheadFraction()*100)
				}
			}
		})
	}
}

// BenchmarkAblationEpochLength sweeps the placement epoch around the
// paper's 1-second choice.
func BenchmarkAblationEpochLength(b *testing.B) {
	for _, div := range []int64{10, 1} {
		epoch := sim.ScaledSecond / div
		b.Run(fmt.Sprintf("epoch=%dus", epoch/1000), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mk := func() workload.Workload {
					return workload.MustNew("phase-shift", workload.Config{Seed: 9, FirstPID: 300})
				}
				cfg := sim.DefaultPlacementConfig(mk(), 4096, 2_000_000, 8, policy.History{}, core.MethodCombined)
				cfg.EpochNS = epoch
				res, err := sim.RunPlacement(cfg, mk())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("hitrate=%.3f promotions=%d", res.Hitrate(), res.Promotions)
				}
			}
		})
	}
}

// BenchmarkAblationRankWeights compares TMP's plain-sum rank against
// the single-method ranks on the offline Fig. 6 pipeline.
func BenchmarkAblationRankWeights(b *testing.B) {
	opts := benchOpts()
	opts.Workloads = []string{"xsbench"}
	s := experiments.NewSuite(opts)
	cp, err := s.Capture("xsbench", ibs.Rate4x)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range core.Methods {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hr := policy.EvaluateHitrate(policy.Oracle{}, cp.Result.Epochs, m, 1024)
				if i == 0 {
					b.Logf("hitrate=%.3f", hr.Hitrate())
				}
			}
		})
	}
}

// --- Component micro-benchmarks -------------------------------------

// BenchmarkMachineExecute measures the simulator's core loop: one
// reference through TLB, page walk, caches, and memory. data-caching
// and phase-shift are the generators behind the benchmark's
// cloud-steady and phase-churn.
func BenchmarkMachineExecute(b *testing.B) {
	for _, name := range []string{"gups", "lulesh", "web-serving", "data-caching", "phase-shift"} {
		b.Run(name, func(b *testing.B) {
			w := workload.MustNew(name, workload.Config{Seed: 2, FirstPID: 100})
			cfg := sim.DefaultConfig(w, 1<<30, 1)
			r, err := sim.New(cfg, w)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]trace.Ref, 1024)
			batch := func() {
				w.Fill(buf)
				for j := range buf {
					if _, err := r.Machine.Execute(buf[j]); err != nil {
						b.Fatal(err)
					}
				}
			}
			// Warm past first touch (phase-shift's start-up stream is
			// 524,288 refs), so every row times the steady-state path.
			for i := 0; i < 1<<20; i += len(buf) {
				batch()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += len(buf) {
				batch()
			}
			b.SetBytes(64)
		})
	}
}

// machineSink keeps the compiler from dropping a measured call.
var machineSink *cpu.Machine

// BenchmarkNewMachine builds the benchmark's hpc-bigfoot machine:
// xsbench's footprint over sim.DefaultChain's two tiers at ratio 16.
// Its B/op is the memory a run sets up before its first reference,
// most of it one page descriptor and one flags byte per frame. The
// bench-compare diff shows it; internal/mem's TestPerFrameBytes is
// what fails when per-frame state grows back.
func BenchmarkNewMachine(b *testing.B) {
	w := workload.MustNew("xsbench", workload.Config{Seed: 42, FirstPID: 100})
	chain, err := sim.DefaultChain(w, 16, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(w, 4096, 0).CPU
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if machineSink, err = cpu.NewMachine(cfg, chain); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadFill measures reference generation alone, for the
// Table III generators and the two synthetic ones the benchmark's
// phase-churn and write-audit workloads run. Each is timed after 2^20
// refs: past phase-shift's 524,288-ref init stream, the longest
// start-up stream, and far enough past it that the Zipf guides are
// nearly filled, so every generator is timed at steady state.
func BenchmarkWorkloadFill(b *testing.B) {
	for _, name := range append(append([]string{}, workload.Names...), "phase-shift", "write-split") {
		b.Run(name, func(b *testing.B) {
			w := workload.MustNew(name, workload.Config{Seed: 2, FirstPID: 100})
			buf := make([]trace.Ref, 1024)
			for i := 0; i < 1<<20; i += len(buf) {
				w.Fill(buf)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += len(buf) {
				w.Fill(buf)
			}
		})
	}
}

// BenchmarkIBSEngine measures the sampling engine's retire hook.
func BenchmarkIBSEngine(b *testing.B) {
	eng, err := ibs.New(ibs.DefaultConfig(4096), nil)
	if err != nil {
		b.Fatal(err)
	}
	o := &trace.Outcome{Source: trace.SrcTier1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ObserveRetire(o, 3)
	}
}

// BenchmarkColocationFilter regenerates the process-filter study.
func BenchmarkColocationFilter(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Colocation(opts, 16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderColocation(res))
		}
	}
}

// --- Hot-path micro-benchmarks (PERFORMANCE.md) ---------------------
//
// These pin the per-epoch aggregation/ranking costs that dominate the
// single-cell experiment path. Run with -benchmem: the CI
// bench-compare job diffs them against the merge base and fails on an
// allocs/op regression in the steady-state harvest.

// hotPathEpochs builds synthetic harvests with an overlapping,
// tie-heavy key space: pages shift by 1/8 of the footprint per epoch,
// ranks repeat modulo small primes, tiers alternate.
func hotPathEpochs(epochs, pagesPer int) []core.EpochStats {
	out := make([]core.EpochStats, epochs)
	for e := range out {
		out[e].Epoch = e
		out[e].Pages = make([]core.PageStat, pagesPer)
		for i := range out[e].Pages {
			vpn := mem.VPN((i + e*pagesPer/8) % (pagesPer * 2))
			tier := mem.SlowTier
			if i%3 == 0 {
				tier = mem.FastTier
			}
			out[e].Pages[i] = core.PageStat{
				Key:      core.PageKey{PID: 100 + i%4, VPN: vpn},
				Tier:     tier,
				Evidence: mem.Evidence{Abit: uint32(i % 7), Trace: uint32(i % 11), True: uint32(i % 5)},
			}
		}
	}
	return out
}

// BenchmarkSumEpochs measures the dense cross-epoch merge (32 epochs
// of 4 Ki pages, heavily overlapping keys).
func BenchmarkSumEpochs(b *testing.B) {
	epochs := hotPathEpochs(32, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SumEpochs(epochs)
	}
}

// BenchmarkRankedPages measures the full canonical sort of a large
// merged harvest.
func BenchmarkRankedPages(b *testing.B) {
	stats := core.SumEpochs(hotPathEpochs(8, 16384))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RankedPages(stats, core.MethodCombined)
	}
}

// BenchmarkTopK measures bounded selection at policy-sized capacities
// over the same harvest BenchmarkRankedPages fully sorts.
func BenchmarkTopK(b *testing.B) {
	stats := core.SumEpochs(hotPathEpochs(8, 16384))
	for _, k := range []int{64, 1024} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.TopK(stats, core.MethodCombined, k)
			}
		})
	}
}

// rankedSink keeps the compiler from dropping a measured call.
var rankedSink int

// BenchmarkRanksOf measures building the mover's dense hotness table.
// RanksOf itself is O(1) and interns on the first lookup, so Len forces
// the build under measurement.
func BenchmarkRanksOf(b *testing.B) {
	stats := core.SumEpochs(hotPathEpochs(8, 16384))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rankedSink = core.RanksOf(stats, core.MethodCombined).Len()
	}
}

// BenchmarkApplySelection measures the mover's epoch cut in the steady
// state, on an hpc-bigfoot-shaped machine: xsbench over two tiers at
// ratio 16, warmed through sim.Drive and the placement pass's public
// calls, with the placement loop's scratch (policy.Reusable and a
// core.RankTable), until the History selection is resident. Each
// iteration then reconciles that fixed selection with a table from the
// kept RankTable. Nothing moves, so the cost is
// gathering candidates, which tracks the selection and the upper tier
// rather than the footprint, and the rank table is never built. The
// contract is 0 allocs/op; the bench-compare CI job guards it.
func BenchmarkApplySelection(b *testing.B) {
	const ratio, warmRefs = 16, 600_000
	w := workload.MustNew("xsbench", workload.Config{Seed: 42, FirstPID: 100})
	cfg := sim.DefaultPlacementConfig(w, 4096, warmRefs, ratio, policy.History{}, core.MethodCombined)
	chain, err := sim.DefaultChain(w, ratio, 2)
	if err != nil {
		b.Fatal(err)
	}
	m, err := cpu.NewMachine(cfg.CPU, chain)
	if err != nil {
		b.Fatal(err)
	}
	m.SetHugeHint(workload.HugeHintFor(w))
	prof, err := core.New(cfg.TMP, m, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, pid := range w.Processes() {
		prof.Register(pid)
	}
	mover := policy.NewMover(m)
	capacity := chain[0].Frames - mem.HugePages
	pol := policy.Reusable(cfg.Policy)
	var ranks core.RankTable
	var ep core.EpochStats
	var sel policy.Selection
	nextEpoch := cfg.EpochNS
	if _, _, err := sim.Drive(m, w, warmRefs, cfg.BatchSize, func(int) error {
		now := m.Now()
		prof.Tick(now)
		if now < nextEpoch {
			return nil
		}
		prof.HarvestEpochInto(&ep)
		sel = pol.Select(ep, core.EpochStats{}, cfg.Method, capacity)
		mover.ApplySelection(sel, ranks.Of(ep, cfg.Method))
		for nextEpoch <= now {
			nextEpoch += cfg.EpochNS
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	for settle := 0; ; settle++ {
		p, d := mover.ApplySelection(sel, ranks.Of(ep, cfg.Method))
		if mover.Failed > 0 {
			b.Fatalf("warm-up migration failed (%d failures)", mover.Failed)
		}
		if p+d == 0 {
			break
		}
		if settle == 8 {
			b.Fatal("the selection never became resident")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p, d := mover.ApplySelection(sel, ranks.Of(ep, cfg.Method)); p+d != 0 {
			b.Fatalf("steady state moved %d pages", p+d)
		}
	}
}

// BenchmarkPlacementEpoch measures one whole placement epoch of the
// policy arm — harvest, Select, rank table, ApplySelection and the
// khugepaged pass — through sim.EpochProbe on an hpc-bigfoot-shaped
// machine (xsbench, two tiers, ratio 16). Every epoch demotes and
// promotes thousands of pages, so ns/op is mostly migration. The
// contract is 0 allocs/op once the run's scratch has grown; the
// bench-compare CI job guards it.
func BenchmarkPlacementEpoch(b *testing.B) {
	w := workload.MustNew("xsbench", workload.Config{Seed: 42, FirstPID: 100})
	cfg := sim.DefaultPlacementConfig(w, 4096, 600_000, 16, policy.History{}, core.MethodCombined)
	probe, err := sim.NewEpochProbe(cfg, w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := probe.Epoch(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarvestSteadyState measures the recycled-scratch harvest
// the placement loop runs every epoch. The contract is 0 allocs/op
// once the scratch has grown to the working set; the bench-compare CI
// job fails the build if this regresses.
func BenchmarkHarvestSteadyState(b *testing.B) {
	w := workload.MustNew("gups", workload.Config{Seed: 2, FirstPID: 100})
	cfg := sim.DefaultConfig(w, 4096, 1)
	r, err := sim.New(cfg, w)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]trace.Ref, 4096)
	w.Fill(buf)
	for j := range buf {
		if _, err := r.Machine.Execute(buf[j]); err != nil {
			b.Fatal(err)
		}
	}
	var ep core.EpochStats
	r.Profiler.HarvestEpochInto(&ep) // grow the scratch once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Refresh per-epoch evidence directly; only the harvest itself
		// is under measurement.
		r.Machine.Phys.ForEachAllocated(func(_ mem.PFN, pd *mem.PageDescriptor) { pd.Epoch.Abit = 1 })
		r.Profiler.HarvestEpochInto(&ep)
	}
}

// BenchmarkObserveHarvest measures the flight recorder's epoch with a
// tracer attached, on the 16 Ki-page harvest BenchmarkRankedPages
// sorts: evidence and selection recorded per page, rank positions from
// the recorder's reused scratch, held verdicts and rank churn at
// FinishEpoch. The contract is 0 allocs/op once the recorder has seen
// the working set; the bench-compare CI job fails the build if this
// regresses.
func BenchmarkObserveHarvest(b *testing.B) {
	stats := core.SumEpochs(hotPathEpochs(8, 16384))
	rec := provenance.New()
	rec.SetTracer(telemetry.New())
	selected := func(k core.PageKey) bool { return k.VPN%8 == 0 }
	epoch := 0
	observe := func() {
		rec.BeginEpoch(epoch, core.MethodCombined, core.MethodCombined, 0)
		rec.ObserveHarvest(stats, selected)
		rec.FinishEpoch()
		epoch++
	}
	// Intern the working set and grow the scratch; the selection
	// columns swap every epoch, so both need a turn.
	observe()
	observe()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe()
	}
}

// BenchmarkRecorderSnapshot measures the flight recorder's Snapshot
// of 4,096 pages whose rings have all wrapped. Snapshot consumes the
// recorder (its log aliases the rings), so each iteration fills a
// fresh one with the timer stopped. The contract is at most 2
// allocs/op, however many pages: the page list, and no copy per page.
// The bench-compare CI job fails the build if this regresses.
func BenchmarkRecorderSnapshot(b *testing.B) {
	const pages = 4096
	ep := core.EpochStats{Pages: make([]core.PageStat, pages)}
	for i := range ep.Pages {
		ep.Pages[i] = core.PageStat{Key: core.PageKey{PID: 100 + i%4, VPN: mem.VPN(pages - i)},
			Evidence: mem.Evidence{Abit: uint32(i % 7), Trace: 1}, Tier: 1}
	}
	selected := func(k core.PageKey) bool { return k.VPN%4 == 0 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rec := provenance.New()
		for e := 0; e < provenance.DefaultLastK+3; e++ {
			rec.BeginEpoch(e, core.MethodCombined, core.MethodCombined, 0)
			rec.ObserveHarvest(ep, selected)
			rec.FinishEpoch()
		}
		b.StartTimer()
		if lg := rec.Snapshot("bench"); len(lg.Pages) != pages {
			b.Fatalf("snapshot holds %d pages, want %d", len(lg.Pages), pages)
		}
	}
}

// BenchmarkAblationDeliveryMode compares IBS-style per-sample
// interrupts against LWP/PEBS-style buffered delivery (§II-B) at the
// same sampling rate.
func BenchmarkAblationDeliveryMode(b *testing.B) {
	for _, arm := range []struct {
		name     string
		buffered bool
	}{{"ibs-interrupt", false}, {"lwp-buffered", true}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := workload.MustNew("gups", workload.Config{Seed: 5, FirstPID: 100})
				cfg := sim.DefaultConfig(w, 4096, 1_500_000)
				cfg.TMP.IBS.Buffered = arm.buffered
				r, err := sim.New(cfg, w)
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.Run()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("duration=%.2fms ibsOverhead=%.3fms delivered=%d",
						float64(res.DurationNS)/1e6, float64(res.IBSOverheadNS)/1e6,
						r.Profiler.IBS.Stats().Delivered)
				}
			}
		})
	}
}
