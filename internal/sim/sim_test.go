package sim

import (
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/policy"
	"tieredmem/internal/workload"
)

func TestSmokeGUPS(t *testing.T) {
	w := workload.MustNew("gups", workload.Config{Seed: 1, FirstPID: 100, ScaleShift: 0})
	cfg := DefaultConfig(w, 16384, 2_000_000)
	r, err := New(cfg, w)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Refs != 2_000_000 {
		t.Errorf("Refs = %d, want 2000000", res.Refs)
	}
	if res.DurationNS <= 0 {
		t.Errorf("DurationNS = %d, want > 0", res.DurationNS)
	}
	if len(res.Epochs) == 0 {
		t.Fatalf("no epochs harvested")
	}
	if res.HugeFaults == 0 {
		t.Errorf("GUPS tables should be THP-backed, got 0 huge faults")
	}
	var abit, tr, truth uint64
	for _, ep := range res.Epochs {
		for _, ps := range ep.Pages {
			abit += uint64(ps.Abit)
			tr += uint64(ps.Trace)
			truth += uint64(ps.True)
		}
	}
	t.Logf("duration=%dms epochs=%d abit=%d trace=%d true=%d hugeFaults=%d minorFaults=%d overhead=%.2f%%",
		res.DurationNS/1e6, len(res.Epochs), abit, tr, truth, res.HugeFaults, res.MinorFaults, res.OverheadFraction()*100)
	if abit == 0 {
		t.Errorf("A-bit profiling saw nothing")
	}
	if tr == 0 {
		t.Errorf("trace profiling saw nothing")
	}
	if truth == 0 {
		t.Errorf("no ground-truth memory accesses recorded")
	}
	ranked := core.RankedPages(res.Epochs[0], core.MethodCombined)
	if len(ranked) == 0 {
		t.Errorf("no ranked pages in first epoch")
	}
}

func TestPlacementSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("placement run is slow")
	}
	mk := func() workload.Workload {
		return workload.MustNew("data-caching", workload.Config{Seed: 7, FirstPID: 200})
	}
	base := DefaultPlacementConfig(mk(), 4096, 3_000_000, 16, nil, core.MethodCombined)
	bres, err := RunPlacement(base, mk())
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	pcfg := DefaultPlacementConfig(mk(), 4096, 3_000_000, 16, policy.History{}, core.MethodCombined)
	pres, err := RunPlacement(pcfg, mk())
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	speedup := float64(bres.DurationNS) / float64(pres.DurationNS)
	t.Logf("baseline: dur=%dms hitrate=%.3f; tmp/history: dur=%dms hitrate=%.3f promotions=%d speedup=%.3f",
		bres.DurationNS/1e6, bres.Hitrate(), pres.DurationNS/1e6, pres.Hitrate(), pres.Promotions, speedup)
	// Hot keys are touched first in data-caching, so first-touch is
	// already near-optimal here; TMP must stay within noise of it
	// (the paper's own average speedup over first-touch is 1.04x).
	if pres.Hitrate() < bres.Hitrate()-0.05 {
		t.Errorf("TMP-placed hitrate %.3f far below baseline %.3f", pres.Hitrate(), bres.Hitrate())
	}
	if speedup < 0.90 {
		t.Errorf("speedup %.3f below 0.90: profiling/migration costs out of band", speedup)
	}
}

func TestPlacementBeatsFirstTouchOnPhaseShift(t *testing.T) {
	if testing.Short() {
		t.Skip("placement run is slow")
	}
	mk := func() workload.Workload {
		return workload.MustNew("phase-shift", workload.Config{Seed: 9, FirstPID: 300})
	}
	base := DefaultPlacementConfig(mk(), 4096, 4_000_000, 8, nil, core.MethodCombined)
	bres, err := RunPlacement(base, mk())
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	pcfg := DefaultPlacementConfig(mk(), 4096, 4_000_000, 8, policy.History{}, core.MethodCombined)
	pres, err := RunPlacement(pcfg, mk())
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	speedup := float64(bres.DurationNS) / float64(pres.DurationNS)
	t.Logf("baseline: dur=%dms hitrate=%.3f; tmp/history: dur=%dms hitrate=%.3f promotions=%d speedup=%.3f",
		bres.DurationNS/1e6, bres.Hitrate(), pres.DurationNS/1e6, pres.Hitrate(), pres.Promotions, speedup)
	if pres.Hitrate() <= bres.Hitrate() {
		t.Errorf("TMP-placed hitrate %.3f not above first-touch %.3f on a phase-shift workload",
			pres.Hitrate(), bres.Hitrate())
	}
	if speedup <= 1.0 {
		t.Errorf("speedup %.3f not above 1.0 on a workload built to defeat first-touch", speedup)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() Result {
		w := workload.MustNew("data-caching", workload.Config{Seed: 3, FirstPID: 100})
		cfg := DefaultConfig(w, 4096, 1_000_000)
		r, err := New(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.DurationNS != b.DurationNS {
		t.Errorf("durations differ: %d vs %d", a.DurationNS, b.DurationNS)
	}
	if len(a.Epochs) != len(b.Epochs) {
		t.Fatalf("epoch counts differ: %d vs %d", len(a.Epochs), len(b.Epochs))
	}
	for i := range a.Epochs {
		if len(a.Epochs[i].Pages) != len(b.Epochs[i].Pages) {
			t.Fatalf("epoch %d page counts differ", i)
		}
		for j := range a.Epochs[i].Pages {
			if a.Epochs[i].Pages[j] != b.Epochs[i].Pages[j] {
				t.Fatalf("epoch %d page %d differs: %+v vs %+v",
					i, j, a.Epochs[i].Pages[j], b.Epochs[i].Pages[j])
			}
		}
	}
	if a.IBSOverheadNS != b.IBSOverheadNS || a.AbitOverheadNS != b.AbitOverheadNS {
		t.Errorf("overheads differ")
	}
}

// TestZeroEpochMeansScaledSecond: New reads EpochNS <= 0 as the scaled
// second Config.EpochNS documents, the same default RunPlacement
// applies, so a zero epoch harvests the default run's epochs.
func TestZeroEpochMeansScaledSecond(t *testing.T) {
	w := workload.MustNew("gups", workload.Config{Seed: 42, FirstPID: 100})
	cfg := DefaultConfig(w, 16384, 400_000)
	cfg.EpochNS = 0
	r, err := New(cfg, w)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	zero, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	scaled := runOnce(t, 42)
	if got, want := rankDump(zero), rankDump(scaled); got != want {
		t.Fatalf("EpochNS 0 harvested %d epochs, ScaledSecond %d:\n%s\nwant:\n%s",
			len(zero.Epochs), len(scaled.Epochs), head(got, 10), head(want, 10))
	}
}
