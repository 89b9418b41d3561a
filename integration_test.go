package tieredmem_test

// Cross-package integration tests: short end-to-end checks that run in
// the default `go test ./...` sweep (the heavyweight versions live in
// the per-package suites and the benchmarks).

import (
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/experiments"
	"tieredmem/internal/ibs"
	"tieredmem/internal/policy"
	"tieredmem/internal/sim"
	"tieredmem/internal/workload"
)

// TestPipelineSmoke runs the full profile -> rank -> offline-hitrate
// pipeline on one small workload.
func TestPipelineSmoke(t *testing.T) {
	w := workload.MustNew("web-serving", workload.Config{Seed: 21, FirstPID: 100, ScaleShift: 1})
	cfg := sim.DefaultConfig(w, 4096, 1_000_000)
	r, err := sim.New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) < 3 {
		t.Fatalf("only %d epochs", len(res.Epochs))
	}
	foot := 0
	seen := map[core.PageKey]bool{}
	for _, ep := range res.Epochs {
		for _, ps := range ep.Pages {
			if ps.True > 0 && !seen[ps.Key] {
				seen[ps.Key] = true
				foot++
			}
		}
	}
	if foot == 0 {
		t.Fatalf("no ground-truth pages")
	}
	for _, m := range core.Methods {
		hr := policy.EvaluateHitrate(policy.Oracle{}, res.Epochs, m, policy.CapacityForRatio(foot, 16))
		if hr.Hitrate() < 0 || hr.Hitrate() > 1 {
			t.Errorf("%v hitrate %v out of range", m, hr.Hitrate())
		}
	}
}

// TestPlacementSmoke runs a short live-placement arm end to end.
func TestPlacementSmoke(t *testing.T) {
	mk := func() workload.Workload {
		return workload.MustNew("phase-shift", workload.Config{Seed: 21, FirstPID: 300, ScaleShift: 2})
	}
	cfg := sim.DefaultPlacementConfig(mk(), 4096, 800_000, 8, policy.History{}, core.MethodCombined)
	res, err := sim.RunPlacement(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	if res.MemAccesses == 0 {
		t.Fatalf("no memory accesses observed")
	}
	if res.Hitrate() < 0 || res.Hitrate() > 1 {
		t.Errorf("hitrate %v out of range", res.Hitrate())
	}
}

// TestExperimentOptionsPlumbing checks the suite caching contract.
func TestExperimentOptionsPlumbing(t *testing.T) {
	opts := experiments.DefaultOptions()
	opts.Refs = 300_000
	opts.Workloads = []string{"gups"}
	opts.ScaleShift = 2
	s := experiments.NewSuite(opts)
	a, err := s.Capture("gups", ibs.Rate4x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Capture("gups", ibs.Rate4x)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("suite did not cache the capture")
	}
	if _, err := s.Capture("no-such-workload", ibs.Rate4x); err == nil {
		t.Errorf("unknown workload accepted")
	}
}
