package sim

import (
	"fmt"
	"strings"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/emul"
	"tieredmem/internal/policy"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/workload"
)

// The loop_* fixtures pin the reference loop's branches no other
// golden reaches: batches that cross several epoch horizons at once,
// and the emulation arm's tick and migration charge.

// TestGoldenMultiHorizonRanks runs a profiling run at a hundredth of
// the default epoch, so many batches cross more than one horizon. Run
// harvests once per crossed horizon, so such a batch appends one
// harvest followed by empty ones; multi counts those batches.
func TestGoldenMultiHorizonRanks(t *testing.T) {
	w := workload.MustNew("gups", workload.Config{Seed: 42, FirstPID: 100})
	cfg := DefaultConfig(w, 16384, 400_000)
	cfg.EpochNS = ScaledSecond / 100
	r, err := New(cfg, w)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	multi := 0
	for i := 1; i < len(res.Epochs); i++ {
		if len(res.Epochs[i].Pages) == 0 && len(res.Epochs[i-1].Pages) > 0 {
			multi++
		}
	}
	got := fmt.Sprintf("epochs=%d multi=%d\n", len(res.Epochs), multi) + digestLine("ranks", rankDump(res))
	checkGolden(t, "loop_multihorizon_ranks.golden", got)
}

// TestGoldenMultiHorizonPlacement runs a placement run at a hundredth
// of the default epoch with the invariant checker on. RunPlacement
// makes one pass per batch however many horizons it crossed, so the
// run elapses more horizons than it makes passes (one harvest, and so
// one telemetry epoch cut, per pass).
func TestGoldenMultiHorizonPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	w := workload.MustNew("phase-shift", workload.Config{Seed: 9, FirstPID: 300})
	cfg := DefaultPlacementConfig(w, 4096, 2_000_000, 8, policy.History{}, core.MethodCombined)
	cfg.EpochNS = ScaledSecond / 100
	cfg.Invariants = true
	cfg.Tracer = telemetry.New()
	res, err := RunPlacement(cfg, w)
	if err != nil {
		t.Fatalf("RunPlacement: %v", err)
	}
	got := fmt.Sprintf("passes=%d horizons=%d\n", len(cfg.Tracer.EpochCuts()), res.DurationNS/cfg.EpochNS) +
		placementDump(res)
	checkGolden(t, "loop_multihorizon_placement.golden", got)
}

// TestGoldenEmulation pins both arms of a BadgerTrap-emulated run
// (§VI-C): the emulator's window tick on the baseline arm, and its
// migration charge and re-poisoning on the policy arm.
func TestGoldenEmulation(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	var b strings.Builder
	for _, p := range []policy.Policy{nil, policy.History{}} {
		w := workload.MustNew("gups", workload.Config{Seed: 42, FirstPID: 100})
		cfg := DefaultPlacementConfig(w, 4096, 1_000_000, 16, p, core.MethodCombined)
		costs := emul.PaperCosts(0)
		cfg.EmulCosts = &costs
		res, err := RunPlacement(cfg, w)
		if err != nil {
			t.Fatalf("RunPlacement(%s): %v", res.Arm, err)
		}
		b.WriteString(placementDump(res))
		fmt.Fprintf(&b, "emul injected=%d faults=%d\n", res.EmulInjected, res.EmulFaults)
	}
	checkGolden(t, "loop_emulation.golden", b.String())
}
