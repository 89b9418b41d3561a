package sim

import (
	"fmt"
	"strings"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/fault"
	"tieredmem/internal/policy"
	"tieredmem/internal/workload"
)

// runOnceFaulted is runOnce with a fault plane attached (possibly nil
// or zero-rate, for the inertness gates).
func runOnceFaulted(t *testing.T, seed int64, p *fault.Plane) Result {
	t.Helper()
	w := workload.MustNew("gups", workload.Config{Seed: seed, FirstPID: 100, ScaleShift: 0})
	cfg := DefaultConfig(w, 16384, 400_000)
	cfg.Faults = p
	r, err := New(cfg, w)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestFaultPlaneInert is the rate-zero half of the fault plane's
// contract: a nil plane and a plane built from the zero Spec must both
// be byte-identical to no plane at all. If this fails, some injection
// site draws from its stream (or otherwise perturbs the run) even when
// it can never fire.
func TestFaultPlaneInert(t *testing.T) {
	plain := rankDump(runOnce(t, 42))
	nilPlane := rankDump(runOnceFaulted(t, 42, nil))
	zero := fault.New(fault.Spec{}, 42)
	zeroPlane := rankDump(runOnceFaulted(t, 42, zero))
	if plain != nilPlane {
		t.Fatalf("nil fault plane changed the ranked-page output:\nplain:\n%s\nnil plane:\n%s",
			head(plain, 30), head(nilPlane, 30))
	}
	if plain != zeroPlane {
		t.Fatalf("zero-rate fault plane changed the ranked-page output:\nplain:\n%s\nzero plane:\n%s",
			head(plain, 30), head(zeroPlane, 30))
	}
	// Inertness must come from never drawing, not from luck: a
	// zero-rate site that touches its stream would still pass the dump
	// comparison today but desynchronize the site the day its rate goes
	// nonzero mid-matrix.
	if n := zero.TotalInjected(); n != 0 {
		t.Errorf("zero-rate plane injected %d faults", n)
	}
	for _, s := range fault.Sites() {
		if d := zero.Draws(s); d != 0 {
			t.Errorf("zero-rate site %s drew %d times; zero-rate sites must never touch their stream", s, d)
		}
	}
}

// placementDump renders everything externally visible about a
// placement run as one byte stream, robustness accounting included.
func placementDump(res PlacementResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s refs=%d dur=%d acc=%d hits=%d promo=%d demo=%d\n",
		res.Workload, res.Arm, res.Refs, res.DurationNS, res.MemAccesses, res.Tier1Hits,
		res.Promotions, res.Demotions)
	fmt.Fprintf(&b, "failed=%d cap=%d pin=%d van=%d split=%d retried=%d rok=%d rsup=%d rdrop=%d inj=%d quar=%v\n",
		res.Failed, res.FailedCapacity, res.FailedPinned, res.FailedVanished, res.FailedSplit,
		res.Retried, res.RetrySucceeded, res.RetrySuperseded, res.RetryDropped,
		res.FaultsInjected, res.Quarantined)
	fmt.Fprintf(&b, "tx=%d txok=%d abort=%d shadow=%d stale=%d admp=%d admd=%d defer=%d rejp=%d rejd=%d\n",
		res.TxStarted, res.TxCommitted, res.AbortedDirty, res.ShadowHits, res.ShadowStale,
		res.AdmittedPromotions, res.AdmittedDemotions, res.DeferredAdmission,
		res.RejectedPromotions, res.RejectedDemotions)
	return b.String()
}

// placementUnderFaults runs one History/combined placement with a
// fresh plane built from spec text (empty = no plane). The invariant
// checker runs every epoch whenever the plane can inject.
func placementUnderFaults(t *testing.T, wname string, seed int64, specText string, refs int, period int) PlacementResult {
	t.Helper()
	spec, err := fault.ParseSpec(specText)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", specText, err)
	}
	w := workload.MustNew(wname, workload.Config{Seed: seed, FirstPID: 100, ScaleShift: 0})
	cfg := DefaultPlacementConfig(w, period, refs, 8, policy.History{}, core.MethodCombined)
	if specText != "" {
		cfg.Faults = fault.New(spec, seed)
	}
	cfg.Invariants = true
	res, err := RunPlacement(cfg, w)
	if err != nil {
		t.Fatalf("RunPlacement(spec=%q seed=%d): %v", specText, seed, err)
	}
	return res
}

// TestPlacementFaultInert extends the inertness gate to the placement
// path: mover, retry queue, and invariant checker wired but never
// exercised must not move a byte.
func TestPlacementFaultInert(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	plain := placementDump(placementUnderFaults(t, "gups", 42, "", 400_000, 16384))
	zero := placementDump(placementUnderFaults(t, "gups", 42, "all=0", 400_000, 16384))
	if plain != zero {
		t.Fatalf("zero-rate plane changed the placement result:\nplain:\n%s\nzero plane:\n%s", plain, zero)
	}
}

// TestChaosMatrix is the robustness acceptance gate: a matrix of fault
// specs crossed with seeds, each run twice. Every run must complete
// with the epoch invariant checker green (RunPlacement fails the run
// otherwise), actually inject faults (non-vacuous), and reproduce
// byte-identically on the second run.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is slow")
	}
	specs := []string{
		"ibs.drop=0.2,ibs.overflow=0.1",
		"mem.enomem=0.3,mem.pinned=0.25,mem.splitfail=0.2",
		"all=0.1",
		"all=0.3",
	}
	for _, specText := range specs {
		for _, seed := range []int64{7, 42} {
			name := fmt.Sprintf("%s/seed=%d", specText, seed)
			t.Run(name, func(t *testing.T) {
				first := placementUnderFaults(t, "gups", seed, specText, 600_000, 4096)
				if first.FaultsInjected == 0 {
					t.Fatalf("spec %q injected nothing; the matrix cell is vacuous", specText)
				}
				second := placementUnderFaults(t, "gups", seed, specText, 600_000, 4096)
				if d1, d2 := placementDump(first), placementDump(second); d1 != d2 {
					t.Fatalf("same spec+seed diverged across runs:\nfirst:\n%s\nsecond:\n%s", d1, d2)
				}
			})
		}
	}
}

// TestChaosMoverRetries pins the failure-handling machinery under
// migration-targeted faults: transient pin/split/capacity failures
// must show up partitioned by reason and flow through the deferred
// retry queue rather than silently vanishing.
func TestChaosMoverRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	// data-caching's hot keys give the History policy a stable
	// selection, so deferred retries come due instead of being
	// superseded by a flip-flopping hot set.
	res := placementUnderFaults(t, "data-caching", 42, "mem.pinned=0.5,mem.splitfail=0.3", 600_000, 8192)
	if res.Failed == 0 {
		t.Fatal("no mover failures under a 50% pin rate; injection is not reaching the mover")
	}
	if sum := res.FailedCapacity + res.FailedPinned + res.FailedVanished + res.FailedSplit; sum != res.Failed {
		t.Fatalf("failure reasons sum to %d, aggregate says %d", sum, res.Failed)
	}
	if res.FailedPinned == 0 {
		t.Error("pin faults injected but FailedPinned is zero")
	}
	if res.Retried == 0 {
		t.Error("transient failures recorded but the retry queue never replayed any")
	}
}

// TestChaosQuarantine drives one mechanism's fault rate far past the
// 50% threshold and checks the profiler permanently disables it, the
// run survives on the remaining evidence, and the degradation is
// reported.
func TestChaosQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	// Long enough for sample attempts to clear QuarantineMinEvents
	// (200) — quarantine refuses to judge small denominators.
	res := placementUnderFaults(t, "gups", 42, "ibs.drop=0.95", 2_000_000, 2048)
	found := false
	for _, m := range res.Quarantined {
		if m == "ibs" {
			found = true
		}
	}
	if !found {
		t.Fatalf("95%% IBS sample loss never quarantined ibs (quarantined: %v)", res.Quarantined)
	}
	if res.MemAccesses == 0 || res.Refs == 0 {
		t.Fatal("quarantined run did not execute")
	}
}
