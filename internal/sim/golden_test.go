package sim

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/fault"
	"tieredmem/internal/policy"
	"tieredmem/internal/report"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata goldens")

// checkGolden compares got against the named fixture, rewriting it
// under -update. The seed_* fixtures were generated on the two-tier
// seed tree before the tier-chain generalization landed: they are the
// differential contract that an N-tier-capable simulator configured
// with the legacy two tiers is a strict superset of the seed — same
// ranks, same placement results, same telemetry stream, byte for byte.
// The sharded_placement_* and chain_* fixtures pin width-1 sharded
// placement runs and 3-/4-tier chains the same way, where the width
// and repeat tests only compare runs with each other.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(want, []byte(got)) {
		t.Fatalf("output drifted from %s (if the change is intentional, run: go test ./internal/sim -run TestGolden -update)\ngot:\n%s\nwant:\n%s",
			path, head(got, 40), head(string(want), 40))
	}
}

// TestGoldenSeedRanks pins the profiling-run ranked-page stream to the
// pre-refactor fixture: every epoch, every method, every page, every
// counter.
func TestGoldenSeedRanks(t *testing.T) {
	checkGolden(t, "seed_ranks.golden", rankDump(runOnce(t, 42)))
}

// TestGoldenSeedPlacement pins the end-to-end placement result
// (hitrate, migrations, robustness accounting) for the seed machine
// shape: History/combined at ratio 8, the configuration the chaos
// matrix and the CLIs default to.
func TestGoldenSeedPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	checkGolden(t, "seed_placement.golden",
		placementDump(placementUnderFaults(t, "gups", 42, "", 400_000, 16384)))
}

// TestGoldenSeedPlacementFaulted pins a faulted two-tier run: the
// fault plane's per-site streams, the mover's retry queue, and the
// quarantine judgments all feed the dumped counters, so any
// perturbation of the seed decision sequences shows up here.
func TestGoldenSeedPlacementFaulted(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	checkGolden(t, "seed_placement_faulted.golden",
		placementDump(placementUnderFaults(t, "gups", 42, "all=0.1", 400_000, 16384)))
}

// telemetryPlacement is placementUnderFaults with a tracer attached,
// returning the full JSONL export (events, epoch counter cuts, totals).
func telemetryPlacement(t *testing.T, wname string, seed int64, refs, period int) string {
	t.Helper()
	w := workload.MustNew(wname, workload.Config{Seed: seed, FirstPID: 100, ScaleShift: 0})
	cfg := DefaultPlacementConfig(w, period, refs, 8, policy.History{}, core.MethodCombined)
	cfg.Tracer = telemetry.New()
	cfg.Invariants = true
	if _, err := RunPlacement(cfg, w); err != nil {
		t.Fatalf("RunPlacement: %v", err)
	}
	var b bytes.Buffer
	if err := telemetry.WriteJSONL(&b, []telemetry.Labeled{{Label: "golden", Tracer: cfg.Tracer}}); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return b.String()
}

// TestGoldenSeedTelemetry pins the telemetry event stream of a seed
// placement run: event order, counter names, and epoch cuts must not
// move under the tier-chain refactor (new counters may only appear in
// runs that actually configure the new machinery).
func TestGoldenSeedTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	checkGolden(t, "seed_telemetry.golden",
		telemetryPlacement(t, "gups", 42, 400_000, 16384))
}

// TestGoldenSeedReport pins the human-readable fault-attribution table
// rendered from a faulted seed run — the report-surface half of the
// differential contract.
func TestGoldenSeedReport(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	res := placementUnderFaults(t, "gups", 42, "all=0.1", 400_000, 16384)
	spec, err := fault.ParseSpec("all=0.1")
	if err != nil {
		t.Fatal(err)
	}
	// Re-derive the plane the run consumed so attribution rows carry
	// the same injection counts.
	w := workload.MustNew("gups", workload.Config{Seed: 42, FirstPID: 100, ScaleShift: 0})
	cfg := DefaultPlacementConfig(w, 16384, 400_000, 8, policy.History{}, core.MethodCombined)
	cfg.Faults = fault.New(spec, 42)
	cfg.Invariants = true
	res2, err := RunPlacement(cfg, w)
	if err != nil {
		t.Fatalf("RunPlacement: %v", err)
	}
	if placementDump(res) != placementDump(res2) {
		t.Fatal("re-derived faulted run diverged from placementUnderFaults")
	}
	checkGolden(t, "seed_report.golden", attributionDump(FaultAttribution([]*fault.Plane{cfg.Faults}, res2)))
}

// digestLine pins a byte stream too large to commit by its fnv64a
// digest and line count, the way seed_provenance_digest.golden does.
func digestLine(name, s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%s fnv64a=%016x lines=%d\n", name, h.Sum64(), strings.Count(s, "\n"))
}

// attributionDump renders fault-attribution rows one name=value a line.
func attributionDump(rows []report.FaultRow) string {
	var b strings.Builder
	for _, row := range rows {
		b.WriteString(row.Name + "=" + uitoa(row.Value) + "\n")
	}
	return b.String()
}

// uitoa formats without strconv to keep the dump trivially stable.
func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
