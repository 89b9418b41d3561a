package main

import (
	"math"
	"runtime/metrics"
	"sort"

	"tieredmem/internal/runner"
	"tieredmem/internal/sim"
)

// selfTimes returns each span's duration less the time its direct
// children cover. The replay is single-threaded, so siblings never
// overlap.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// layerView aggregates a trace per arm: self time and call count by
// span name, and the durations of the spans whose distribution is
// reported.
type layerView struct {
	self   [2]map[string]int64
	calls  [2]map[string]int
	batch  []float64 // policy-arm cpu.execute durations, ns
	epochs []float64 // policy-arm sim.epoch durations, ns
	runs   [2]runInfo
}

func viewOf(tr *tracer) layerView {
	v := layerView{}
	for a := range v.self {
		v.self[a] = map[string]int64{}
		v.calls[a] = map[string]int{}
	}
	self := selfTimes(tr.spans)
	for i, s := range tr.spans {
		arm := tr.runs[s.Run].Arm
		v.self[arm][s.Name] += self[i]
		v.calls[arm][s.Name]++
		if arm != policyArm {
			continue
		}
		switch s.Name {
		case "cpu.execute":
			v.batch = append(v.batch, float64(s.End-s.Start))
		case "sim.epoch":
			v.epochs = append(v.epochs, float64(s.End-s.Start))
		}
	}
	for _, r := range tr.runs {
		t := &v.runs[r.Arm]
		t.Refs += r.Refs
		t.TLBMisses += r.TLBMisses
		t.Walks += r.Walks
		t.MinorFaults += r.MinorFaults
		t.HarvestPages += r.HarvestPages
		t.IBSDelivered += r.IBSDelivered
		t.DevObserved += r.DevObserved
		t.DevFolded += r.DevFolded
	}
	return v
}

// both sums a span name's self time over the two arms.
func (v layerView) both(name string) int64 { return v.self[0][name] + v.self[1][name] }

// goCounters is a runtime/metrics reading: bytes allocated, and CPU
// seconds spent in GC and in total.
type goCounters struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

// since is the change from prev to g.
func (g goCounters) since(prev goCounters) goCounters {
	return goCounters{g.allocBytes - prev.allocBytes, g.gcCPU - prev.gcCPU, g.totalCPU - prev.totalCPU}
}

func (g *goCounters) add(d goCounters) {
	g.allocBytes += d.allocBytes
	g.gcCPU += d.gcCPU
	g.totalCPU += d.totalCPU
}

func readGo() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var g goCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[2].Value.Float64()
	}
	return g
}

// untracedPass is what a rep measured on its untraced pass: wall time;
// sequential time, which counts a shard pool's busy time in place of
// its wall time because the traced replay runs cells one after
// another; the policy arm's shard-pool stats; and what the Go runtime
// counted while the arms ran.
type untracedPass struct {
	wallNS, seqNS int64
	stats         runner.Stats
	gc            goCounters
}

// layerMetrics derives the per-layer metrics of one traced rep. arms are
// the replayed results; every name here is a per_layer entry of
// BENCHMARK.json.
func layerMetrics(tr *tracer, arms [2]sim.PlacementResult, u untracedPass, tracedNS int64) map[string]float64 {
	v := viewOf(tr)
	p, f := v.runs[policyArm], v.runs[firstTouchArm]
	refsP, refsAll := float64(p.Refs), float64(p.Refs+f.Refs)
	epochsP := float64(v.calls[policyArm]["sim.epoch"])
	epochsAll := float64(v.calls[0]["sim.epoch"] + v.calls[1]["sim.epoch"])
	pol := arms[policyArm]
	migrations := float64(pol.Promotions + pol.Demotions)
	execP := ratio(float64(v.self[policyArm]["cpu.execute"]), refsP)
	execF := ratio(float64(v.self[firstTouchArm]["cpu.execute"]), float64(f.Refs))
	perEpochUS := func(name string) float64 { return ratio(float64(v.self[policyArm][name]), epochsP) / 1e3 }
	epochTail, epochTailPct := tail(v.epochs)

	m := map[string]float64{
		"workload.fill_ns_per_ref":        ratio(float64(v.both("workload.fill")), refsAll),
		"cpu.execute_ns_per_ref":          execP,
		"cpu.execute_bare_ns_per_ref":     execF,
		"cpu.batch_us_p50":                percentile(v.batch, 50) / 1e3,
		"cpu.batch_us_p99":                percentile(v.batch, 99) / 1e3,
		"cpu.tlb_miss_per_ref":            ratio(float64(p.TLBMisses), refsP),
		"cpu.walk_per_ref":                ratio(float64(p.Walks), refsP),
		"cpu.mem_access_per_ref":          ratio(float64(pol.MemAccesses), refsP),
		"cpu.minor_faults":                float64(p.MinorFaults),
		"ibs.observe_ns_per_ref":          execP - execF,
		"ibs.samples_per_kref":            ratio(float64(p.IBSDelivered)*1e3, refsP),
		"devprof.observed_per_kref":       ratio(float64(p.DevObserved)*1e3, refsP),
		"devprof.folded_frac":             ratio(float64(p.DevFolded), float64(p.DevObserved)),
		"core.tick_ns_per_ref":            ratio(float64(v.self[policyArm]["core.tick"]), refsP),
		"core.harvest_us_per_epoch":       perEpochUS("core.harvest"),
		"core.harvest_pages_per_epoch":    ratio(float64(p.HarvestPages), epochsP),
		"core.ranks_us_per_epoch":         perEpochUS("core.ranks"),
		"policy.select_us_per_epoch":      perEpochUS("policy.select"),
		"policy.apply_us_per_epoch":       perEpochUS("policy.apply"),
		"policy.apply_ns_per_migration":   ratio(float64(v.self[policyArm]["policy.apply"]), migrations),
		"policy.collapse_us_per_epoch":    perEpochUS("policy.collapse"),
		"policy.migrations":               migrations,
		"policy.shadow_hit_ratio":         ratio(float64(pol.ShadowHits), float64(pol.Demotions)),
		"policy.tx_abort_ratio":           ratio(float64(pol.AbortedDirty), float64(pol.TxStarted)),
		"policy.retry_success_ratio":      ratio(float64(pol.RetrySucceeded), float64(pol.Retried)),
		"fault.injected":                  float64(arms[0].FaultsInjected + pol.FaultsInjected),
		"invariant.check_us_per_epoch":    ratio(float64(v.both("invariant.check")), epochsAll) / 1e3,
		"provenance.observe_us_per_epoch": perEpochUS("provenance.observe"),
		"provenance.snapshot_ms":          float64(v.self[policyArm]["provenance.snapshot"]) / 1e6,
		"teleout.write_ms":                float64(v.both("teleout.write")) / 1e6,
		"runner.parallel_eff":             parallelEff(u.stats),
		"runner.cell_imbalance":           cellImbalance(u.stats),
		"sim.setup_ms":                    float64(v.both("sim.setup")) / 1e6,
		"sim.epochs":                      epochsP,
		"sim.epoch_ms_p50":                percentile(v.epochs, 50) / 1e6,
		"sim.epoch_ms_tail":               epochTail / 1e6,
		"sim.epoch_tail_pct":              epochTailPct,
		"sim.loop_self_ns_per_ref":        ratio(float64(v.both("sim.run")), refsAll),
		"go.alloc_bytes_per_ref":          ratio(float64(u.gc.allocBytes), float64(arms[0].Refs+pol.Refs)),
		"go.gc_cpu_frac":                  ratio(u.gc.gcCPU, u.gc.totalCPU),
		"trace.overhead_frac":             ratio(float64(tracedNS), float64(u.seqNS)) - 1,
	}
	return m
}

// parallelEff is the shard pool's busy time over its wall time times
// its workers; 0 for an arm that ran without the pool.
func parallelEff(s runner.Stats) float64 {
	return ratio(float64(s.BusyNS), float64(s.WallNS)*float64(s.Workers))
}

// cellImbalance is the slowest cell's wall time over the mean cell's.
func cellImbalance(s runner.Stats) float64 {
	var sum, worst int64
	for _, j := range s.PerJob {
		sum += j.WallNS
		worst = max(worst, j.WallNS)
	}
	return ratio(float64(worst)*float64(len(s.PerJob)), float64(sum))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank p-th percentile; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// tailPcts are the candidate tail percentiles, highest first.
var tailPcts = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest candidate percentile with at least ten
// samples beyond it, and which percentile that is.
func tail(xs []float64) (value, pct float64) {
	for _, p := range tailPcts {
		if float64(len(xs))*(1-p/100) >= 10 {
			return percentile(xs, p), p
		}
	}
	return percentile(xs, 50), 50
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which the benchmark's spread is judged by; one sample is its
// own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
