package sim

import (
	"errors"
	"fmt"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/policy"
	"tieredmem/internal/workload"
)

// chainPlacement runs one placement over a DefaultChain of the given
// depth, with the device tracker attached whenever the chain has a
// device tier and the invariant checker on every epoch. mutate, when
// given, adjusts the config last. It also returns the run's fault
// plane (nil for an empty spec).
func chainPlacement(t *testing.T, wname string, seed int64, specText string, refs, period, depth int, method core.Method, mutate ...func(*PlacementConfig)) (PlacementResult, *fault.Plane) {
	t.Helper()
	spec, err := fault.ParseSpec(specText)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", specText, err)
	}
	w := workload.MustNew(wname, workload.Config{Seed: seed, FirstPID: 100, ScaleShift: 0})
	cfg := DefaultPlacementConfig(w, period, refs, 8, policy.History{}, method)
	chain, err := DefaultChain(w, 8, depth)
	if err != nil {
		t.Fatalf("DefaultChain(%d): %v", depth, err)
	}
	cfg.Tiers = chain
	cfg.TMP.EnableDevProf = chain.HasDevice()
	if specText != "" {
		cfg.Faults = fault.New(spec, seed)
	}
	cfg.Invariants = true
	for _, f := range mutate {
		f(&cfg)
	}
	res, err := RunPlacement(cfg, w)
	if err != nil {
		t.Fatalf("RunPlacement(depth=%d spec=%q seed=%d): %v", depth, specText, seed, err)
	}
	return res, cfg.Faults
}

// TestDefaultChainTwoTierIdentity pins the seed-compatibility anchor:
// the 2-tier DefaultChain is the legacy DefaultTiers layout element for
// element, so every chain-aware path degrades to the golden-pinned
// two-tier machine.
func TestDefaultChainTwoTierIdentity(t *testing.T) {
	w := workload.MustNew("gups", workload.Config{Seed: 42, FirstPID: 100})
	chain, err := DefaultChain(w, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	foot := int(w.FootprintBytes() >> mem.PageShift)
	want := mem.DefaultTiers(foot/16+mem.HugePages, foot+foot/4+mem.HugePages)
	if len(chain) != len(want) {
		t.Fatalf("DefaultChain(2) has %d tiers, DefaultTiers has %d", len(chain), len(want))
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Errorf("tier %d: DefaultChain %+v != DefaultTiers %+v", i, chain[i], want[i])
		}
	}
	if chain.HasDevice() {
		t.Error("2-tier chain claims a device tier")
	}
	if _, err := DefaultChain(w, 16, 5); err == nil {
		t.Error("DefaultChain(5) did not reject an unsupported depth")
	}
}

// TestDefaultChainRejectsNonPositiveRatio pins that a ratio that is
// not positive sizes no chain: DefaultChain, and a RunPlacement that
// leaves Tiers nil, fail with mem.ErrBadChain instead of silently
// building the ratio-16 machine.
func TestDefaultChainRejectsNonPositiveRatio(t *testing.T) {
	w := workload.MustNew("gups", workload.Config{Seed: 42, FirstPID: 100})
	for _, c := range []struct{ ratio, depth int }{{0, 2}, {-3, 3}} {
		if _, err := DefaultChain(w, c.ratio, c.depth); !errors.Is(err, mem.ErrBadChain) {
			t.Errorf("DefaultChain(ratio %d, depth %d): err %v, want mem.ErrBadChain", c.ratio, c.depth, err)
		}
	}
	cfg := DefaultPlacementConfig(w, 4096, 20_000, 0, nil, core.MethodCombined)
	if _, err := RunPlacement(cfg, w); !errors.Is(err, mem.ErrBadChain) {
		t.Errorf("RunPlacement with Ratio 0 and nil Tiers: err %v, want mem.ErrBadChain", err)
	}
}

// TestChainPlacementDevprofSmoke checks the device tracker actually
// drives placement on a deep chain: ranking on device evidence alone
// still promotes pages, and the run holds every epoch invariant
// (including per-tier frame conservation across three tiers).
func TestChainPlacementDevprofSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	res, _ := chainPlacement(t, "gups", 42, "", 400_000, 16384, 3, core.MethodDev)
	if res.Promotions == 0 {
		t.Fatal("device-only evidence promoted nothing; the tracker is not reaching the ranks")
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("unfaulted run quarantined %v", res.Quarantined)
	}
}

// TestChaosMatrixMultiTier extends the chaos acceptance gate to deep
// chains: device-site and whole-plane specs over 3- and 4-tier chains,
// each run twice. Every run must hold the epoch invariants (frames
// conserved per tier, descriptors on the tier they claim), actually
// inject, and reproduce byte-identically.
func TestChaosMatrixMultiTier(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is slow")
	}
	specs := []string{
		"devprof.overflow=0.4,devprof.stale=0.3",
		"all=0.1",
	}
	for _, specText := range specs {
		for _, depth := range []int{3, 4} {
			name := fmt.Sprintf("%s/%dt", specText, depth)
			t.Run(name, func(t *testing.T) {
				first, _ := chainPlacement(t, "gups", 42, specText, 600_000, 4096, depth, core.MethodCombined)
				if first.FaultsInjected == 0 {
					t.Fatalf("spec %q injected nothing on the %d-tier chain; the cell is vacuous", specText, depth)
				}
				second, _ := chainPlacement(t, "gups", 42, specText, 600_000, 4096, depth, core.MethodCombined)
				if d1, d2 := placementDump(first), placementDump(second); d1 != d2 {
					t.Fatalf("same spec+seed diverged across runs:\nfirst:\n%s\nsecond:\n%s", d1, d2)
				}
			})
		}
	}
}

// TestChainGolden pins 3- and 4-tier placement runs to fixtures, where
// the chaos matrix above only compares a run with its repeat. Deep
// demotions, cascades and the climb through middle tiers all feed the
// dumped counters; the retry-heavy spec drives the retry queue across
// the chain, and the transactional arm runs admission on every tier.
func TestChainGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	tx := func(cfg *PlacementConfig) {
		cfg.TxMigration = true
		cfg.AdmissionFrac = 0.25
	}
	for _, depth := range []int{3, 4} {
		for _, tc := range []struct {
			name, spec string
			mutate     []func(*PlacementConfig)
		}{
			{"unfaulted", "", nil},
			{"chaos", "all=0.1", nil},
			{"retryheavy", "mem.enomem=0.6,mem.pinned=0.4", nil},
			{"txadmission", "mem.copyabort=0.3,mem.shadowstale=0.2", []func(*PlacementConfig){tx}},
		} {
			name := fmt.Sprintf("%dt_%s", depth, tc.name)
			t.Run(name, func(t *testing.T) {
				res, plane := chainPlacement(t, "gups", 42, tc.spec, 400_000, 16384, depth, core.MethodCombined, tc.mutate...)
				checkGolden(t, "chain_"+name+".golden",
					placementDump(res)+attributionDump(FaultAttribution([]*fault.Plane{plane}, res)))
			})
		}
	}
}

// TestChaosDevprofQuarantine drives the device tracker's flush-fault
// rate past the threshold on a 3-tier chain and checks the profiler
// quarantines it, the run completes on host evidence, and the
// degradation is reported.
func TestChaosDevprofQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	res, _ := chainPlacement(t, "gups", 42, "devprof.overflow=0.95", 2_000_000, 4096, 3, core.MethodDev)
	found := false
	for _, m := range res.Quarantined {
		if m == "devprof" {
			found = true
		}
	}
	if !found {
		t.Fatalf("95%% device flush loss never quarantined devprof (quarantined: %v)", res.Quarantined)
	}
	if res.MemAccesses == 0 || res.Refs == 0 {
		t.Fatal("quarantined run did not execute")
	}
}
