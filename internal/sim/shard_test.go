package sim

import (
	"fmt"
	"strings"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/fault"
	"tieredmem/internal/policy"
	"tieredmem/internal/provenance"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/workload"
)

// shardMk builds the canonical sharding test workload from a seed.
func shardMk(seed int64) func() workload.Workload {
	return func() workload.Workload {
		return workload.MustNew("gups", workload.Config{Seed: seed, FirstPID: 100})
	}
}

// runShardedOnce executes a sharded profiling run at the given pool
// width.
func runShardedOnce(t *testing.T, width int, spec fault.Spec) ShardedResult {
	t.Helper()
	mk := shardMk(42)
	cfg := DefaultConfig(mk(), 16384, 400_000)
	res, err := RunSharded(ShardedConfig{
		Base: cfg, Shards: width, Label: "prof",
		Trace: true, FaultSpec: spec, FaultSeed: 42,
	}, mk)
	if err != nil {
		t.Fatalf("RunSharded(width=%d): %v", width, err)
	}
	if len(res.Epochs) == 0 {
		t.Fatal("sharded run harvested no epochs")
	}
	if res.Refs != cfg.TotalRefs {
		t.Fatalf("sharded run executed %d refs, want %d (cell budgets must partition the total)", res.Refs, cfg.TotalRefs)
	}
	return res
}

// telemetryDump renders a run's telemetry export bytes.
func telemetryDump(t *testing.T, runs []telemetry.Labeled) string {
	t.Helper()
	var b strings.Builder
	if err := telemetry.WriteJSONL(&b, runs); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return b.String()
}

// TestShardedRanksIdenticalAcrossWidths is the tentpole's byte-identity
// gate: the fused per-epoch ranks — the simulator's externally visible
// profiling output — must be byte-identical at -shards 1 and -shards 8
// (and reproducible at a fixed width). The partition is fixed by the
// machine shape, so the pool width can only change wall-clock.
func TestShardedRanksIdenticalAcrossWidths(t *testing.T) {
	seq := runShardedOnce(t, 1, fault.Spec{})
	seqDump := rankDump(seq.Result)
	for _, width := range []int{3, 8} {
		par := runShardedOnce(t, width, fault.Spec{})
		if d := rankDump(par.Result); d != seqDump {
			t.Fatalf("-shards 1 vs -shards %d rank output diverged:\nseq:\n%s\npar:\n%s",
				width, head(seqDump, 30), head(d, 30))
		}
	}
	again := runShardedOnce(t, 1, fault.Spec{})
	if rankDump(again.Result) != seqDump {
		t.Fatal("same seed, same width produced different sharded output")
	}
	// Different seed must change the stream or the dump is vacuous.
	mk := shardMk(43)
	other, err := RunSharded(ShardedConfig{Base: DefaultConfig(mk(), 16384, 400_000), Shards: 1}, mk)
	if err != nil {
		t.Fatal(err)
	}
	if rankDump(other.Result) == seqDump {
		t.Fatal("different seeds produced identical sharded output")
	}
}

// TestShardedTelemetryIdenticalAcrossWidths pins the telemetry JSONL
// export: per-cell tracers serialize in cell order, so the bytes are
// width-independent.
func TestShardedTelemetryIdenticalAcrossWidths(t *testing.T) {
	seq := runShardedOnce(t, 1, fault.Spec{})
	par := runShardedOnce(t, 8, fault.Spec{})
	if len(seq.Telemetry) != seq.Cells {
		t.Fatalf("want %d per-cell tracers, got %d", seq.Cells, len(seq.Telemetry))
	}
	if a, b := telemetryDump(t, seq.Telemetry), telemetryDump(t, par.Telemetry); a != b {
		t.Fatal("-shards 1 vs -shards 8 telemetry JSONL diverged")
	}
}

// TestShardedChaosIdenticalAcrossWidths is the chaos-matrix arm of the
// sharded identity contract: with every fault site injecting at 10%,
// ranks and telemetry must still be byte-identical across widths —
// per-cell fault planes are seeded by cell index, never by worker.
func TestShardedChaosIdenticalAcrossWidths(t *testing.T) {
	spec, err := fault.ParseSpec("all=0.1")
	if err != nil {
		t.Fatal(err)
	}
	seq := runShardedOnce(t, 1, spec)
	par := runShardedOnce(t, 8, spec)
	if a, b := rankDump(seq.Result), rankDump(par.Result); a != b {
		t.Fatalf("faulted -shards 1 vs -shards 8 rank output diverged:\nseq:\n%s\npar:\n%s",
			head(a, 30), head(b, 30))
	}
	if a, b := telemetryDump(t, seq.Telemetry), telemetryDump(t, par.Telemetry); a != b {
		t.Fatal("faulted -shards 1 vs -shards 8 telemetry diverged")
	}
	if seq.FaultsInjectedTotal() == 0 {
		t.Fatal("all=0.1 injected nothing; the chaos arm is vacuous")
	}
}

// shardedPlacementDump renders a fused placement run's externally
// visible numbers as one byte stream (the shared placementDump plus
// the partition width).
func shardedPlacementDump(res ShardedPlacementResult) string {
	return fmt.Sprintf("cells=%d\n%s", res.Cells, placementDump(res.PlacementResult))
}

// provDump renders a fused provenance log's serialized bytes.
func provDump(t *testing.T, lg provenance.Log) string {
	t.Helper()
	var b strings.Builder
	if err := provenance.WriteLog(&b, []provenance.Log{lg}); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	return b.String()
}

// runShardedPlacementOnce executes a sharded placement run at the
// given pool width, history/tmp arm, provenance and telemetry on.
func runShardedPlacementOnce(t *testing.T, width int, spec fault.Spec) ShardedPlacementResult {
	t.Helper()
	return runShardedPlacementCfg(t, width, spec, nil)
}

// runShardedPlacementCfg is runShardedPlacementOnce with a base-config
// hook (transactional migration, admission control, retry tuning).
func runShardedPlacementCfg(t *testing.T, width int, spec fault.Spec, mutate func(*PlacementConfig)) ShardedPlacementResult {
	t.Helper()
	mk := shardMk(42)
	cfg := DefaultPlacementConfig(mk(), 16384, 400_000, 16, nil, core.MethodCombined)
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := RunShardedPlacement(ShardedPlacementConfig{
		Base: cfg, Shards: width, Label: "history",
		MkPolicy: func() policy.Policy { return policy.History{} },
		Trace:    true, Prov: true,
		FaultSpec: spec, FaultSeed: 42,
	}, mk)
	if err != nil {
		t.Fatalf("RunShardedPlacement(width=%d): %v", width, err)
	}
	if res.Refs != cfg.TotalRefs {
		t.Fatalf("sharded placement executed %d refs, want %d", res.Refs, cfg.TotalRefs)
	}
	return res
}

// TestShardedPlacementIdenticalAcrossWidths extends the identity gate
// end-to-end: placement counters, telemetry, and the fused provenance
// log must be byte-identical at -shards 1 and -shards 8, unfaulted and
// faulted (the chaos-matrix arm).
func TestShardedPlacementIdenticalAcrossWidths(t *testing.T) {
	chaos, err := fault.ParseSpec("all=0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec fault.Spec
	}{
		{"unfaulted", fault.Spec{}},
		{"faulted", chaos},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := runShardedPlacementOnce(t, 1, tc.spec)
			par := runShardedPlacementOnce(t, 8, tc.spec)
			if a, b := shardedPlacementDump(seq), shardedPlacementDump(par); a != b {
				t.Fatalf("-shards 1 vs -shards 8 placement output diverged:\n%s\nvs\n%s", a, b)
			}
			if a, b := telemetryDump(t, seq.Telemetry), telemetryDump(t, par.Telemetry); a != b {
				t.Fatal("-shards 1 vs -shards 8 placement telemetry diverged")
			}
			if !seq.HasProv || !par.HasProv {
				t.Fatal("sharded placement run did not fuse a provenance log")
			}
			if len(seq.Prov.Pages) == 0 {
				t.Fatal("fused provenance log is empty; the identity check is vacuous")
			}
			if a, b := provDump(t, seq.Prov), provDump(t, par.Prov); a != b {
				t.Fatal("-shards 1 vs -shards 8 provenance logs diverged")
			}
			if seq.Promotions == 0 {
				t.Fatal("sharded history arm promoted nothing; the placement identity check is vacuous")
			}
		})
	}
}

// TestShardedRetryHeavyIdenticalAcrossWidths pins the deferred-retry
// queue's replay order under sharding: with allocation and pin faults
// firing at high rates, most migrations fail transiently and replay
// from each cell's retry queue in later epochs. A retry deferred in
// cell k must land in the same epoch, in the same order, at any pool
// width — the fused provenance log (per-page verdict timelines) and
// the summed retry counters are compared byte-for-byte at -shards 1
// and -shards 8, and reproduced at a fixed width.
func TestShardedRetryHeavyIdenticalAcrossWidths(t *testing.T) {
	spec, err := fault.ParseSpec("mem.enomem=0.6,mem.pinned=0.4")
	if err != nil {
		t.Fatal(err)
	}
	seq := runShardedPlacementOnce(t, 1, spec)
	if seq.Retried == 0 || seq.RetrySucceeded == 0 {
		t.Fatalf("retry-heavy spec replayed nothing (retried=%d rok=%d); the identity check is vacuous",
			seq.Retried, seq.RetrySucceeded)
	}
	par := runShardedPlacementOnce(t, 8, spec)
	if a, b := shardedPlacementDump(seq), shardedPlacementDump(par); a != b {
		t.Fatalf("retry-heavy -shards 1 vs -shards 8 placement output diverged:\n%s\nvs\n%s", a, b)
	}
	if a, b := provDump(t, seq.Prov), provDump(t, par.Prov); a != b {
		t.Fatal("retry-heavy -shards 1 vs -shards 8 provenance logs diverged (retry replay epoch/order moved)")
	}
	again := runShardedPlacementOnce(t, 1, spec)
	if shardedPlacementDump(again) != shardedPlacementDump(seq) {
		t.Fatal("same seed, same width produced different retry-heavy output")
	}
}

// TestShardedTxAdmissionChaosIdenticalAcrossWidths extends the sharded
// identity contract to the transactional engine: with mid-copy dirty
// aborts and stale shadows injected and a tight per-cell admission
// budget, placement counters and the fused provenance log must still
// be byte-identical at -shards 1 and -shards 8 — per-cell budgets are
// pure functions of (EpochNS, AdmissionFrac), never of pool width.
func TestShardedTxAdmissionChaosIdenticalAcrossWidths(t *testing.T) {
	spec, err := fault.ParseSpec("mem.copyabort=0.3,mem.shadowstale=0.2")
	if err != nil {
		t.Fatal(err)
	}
	tx := func(cfg *PlacementConfig) {
		cfg.TxMigration = true
		cfg.AdmissionFrac = 0.25
	}
	seq := runShardedPlacementCfg(t, 1, spec, tx)
	if seq.TxCommitted == 0 || seq.AbortedDirty == 0 || seq.DeferredAdmission == 0 {
		t.Fatalf("tx chaos arm is vacuous: txok=%d abort=%d defer=%d",
			seq.TxCommitted, seq.AbortedDirty, seq.DeferredAdmission)
	}
	par := runShardedPlacementCfg(t, 8, spec, tx)
	if a, b := shardedPlacementDump(seq), shardedPlacementDump(par); a != b {
		t.Fatalf("tx chaos -shards 1 vs -shards 8 placement output diverged:\n%s\nvs\n%s", a, b)
	}
	if a, b := provDump(t, seq.Prov), provDump(t, par.Prov); a != b {
		t.Fatal("tx chaos -shards 1 vs -shards 8 provenance logs diverged")
	}
	again := runShardedPlacementCfg(t, 1, spec, tx)
	if shardedPlacementDump(again) != shardedPlacementDump(seq) {
		t.Fatal("same seed, same width produced different tx chaos output")
	}
}

// shardedGoldenDump renders a width-1 sharded placement run for a
// golden: the fused placement dump and fault-attribution rows as text,
// the per-cell telemetry export and fused provenance log as digests.
func shardedGoldenDump(t *testing.T, res ShardedPlacementResult) string {
	t.Helper()
	return shardedPlacementDump(res) +
		attributionDump(FaultAttribution(res.Planes, res.PlacementResult)) +
		fmt.Sprintf("tracers=%d prov=%v pages=%d\n", len(res.Telemetry), res.HasProv, len(res.Prov.Pages)) +
		digestLine("telemetry", telemetryDump(t, res.Telemetry)) +
		digestLine("provenance", provDump(t, res.Prov))
}

// TestShardedGoldenPlacement pins the fused output of width-1 sharded
// placement runs to fixtures, where the width tests above only compare
// widths with each other: a change that moves every width alike (the
// cell driver, the counter fusion, the mover) fails here.
func TestShardedGoldenPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	for _, tc := range []struct {
		name, spec string
		mutate     func(*PlacementConfig)
	}{
		{"unfaulted", "", nil},
		{"faulted", "all=0.1", nil},
		{"txadmission", "mem.copyabort=0.3,mem.shadowstale=0.2", func(cfg *PlacementConfig) {
			cfg.TxMigration = true
			cfg.AdmissionFrac = 0.25
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := fault.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			res := runShardedPlacementCfg(t, 1, spec, tc.mutate)
			checkGolden(t, "sharded_placement_"+tc.name+".golden", shardedGoldenDump(t, res))
		})
	}
}

// TestShardedGoldenEmptyCells pins a 3-reference sharded run: most
// cells get no references, yet each still exports its tracer and
// snapshots its recorder, so the exports keep one entry per cell.
func TestShardedGoldenEmptyCells(t *testing.T) {
	res := runShardedPlacementCfg(t, 1, fault.Spec{}, func(cfg *PlacementConfig) { cfg.TotalRefs = 3 })
	if len(res.Telemetry) != res.Cells || res.Cells <= 3 {
		t.Fatalf("%d tracers for %d cells; want one per cell and more cells than references", len(res.Telemetry), res.Cells)
	}
	checkGolden(t, "sharded_placement_emptycells.golden", shardedGoldenDump(t, res))
}

// TestShardedGoldenRanks pins width-1 sharded profiling runs: the
// fused ranks and per-cell telemetry as digests, the fused totals as
// text.
func TestShardedGoldenRanks(t *testing.T) {
	for _, tc := range []struct{ name, spec string }{{"unfaulted", ""}, {"faulted", "all=0.1"}} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := fault.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			res := runShardedOnce(t, 1, spec)
			got := fmt.Sprintf("cells=%d refs=%d dur=%d minor=%d huge=%d inj=%d quar=%v\n",
				res.Cells, res.Refs, res.DurationNS, res.MinorFaults, res.HugeFaults,
				res.FaultsInjectedTotal(), res.Quarantined) +
				digestLine("ranks", rankDump(res.Result)) +
				digestLine("telemetry", telemetryDump(t, res.Telemetry))
			checkGolden(t, "sharded_ranks_"+tc.name+".golden", got)
		})
	}
}

// TestShardedConfigRejectsSharedState pins the anti-race guard: base
// configs carrying a shared tracer, plane, recorder, or policy are
// rejected rather than silently shared across cells.
func TestShardedConfigRejectsSharedState(t *testing.T) {
	mk := shardMk(42)
	cfg := DefaultConfig(mk(), 16384, 1000)
	cfg.Tracer = telemetry.New()
	if _, err := RunSharded(ShardedConfig{Base: cfg, Shards: 2}, mk); err == nil {
		t.Fatal("RunSharded accepted a shared Base.Tracer")
	}
	pcfg := DefaultPlacementConfig(mk(), 16384, 1000, 16, policy.History{}, core.MethodCombined)
	if _, err := RunShardedPlacement(ShardedPlacementConfig{Base: pcfg, Shards: 2}, mk); err == nil {
		t.Fatal("RunShardedPlacement accepted a shared Base.Policy")
	}
}

// TestShardedRejectsCombined pins that non-sliceable workloads error
// out rather than silently running unsharded.
func TestShardedRejectsCombined(t *testing.T) {
	mkc := func() workload.Workload {
		a := workload.MustNew("gups", workload.Config{Seed: 42, FirstPID: 100})
		b := workload.MustNew("web-serving", workload.Config{Seed: 42, FirstPID: 200})
		c, err := workload.Combine(a, b)
		if err != nil {
			panic(err)
		}
		return c
	}
	cfg := DefaultConfig(mkc(), 16384, 1000)
	if _, err := RunSharded(ShardedConfig{Base: cfg, Shards: 2}, mkc); err == nil {
		t.Fatal("RunSharded accepted a combined workload")
	}
}
