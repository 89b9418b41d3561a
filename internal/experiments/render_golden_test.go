package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/stats"
)

// update rewrites the renderer goldens instead of comparing:
//
//	go test ./internal/experiments -run Golden -update
//
// The fixtures are hand-built rows, not simulation output, so these
// tests pin the *rendering* (column layout, number formatting, captions)
// independently of simulation drift: a change to the simulator cannot
// break them, and a change to a renderer cannot hide behind one. The
// one exception is methods_sim, which pins the simulated methods
// comparison (TestParallelEqualsSequentialMethods).
var update = flag.Bool("update", false, "rewrite testdata goldens")

// checkGolden compares got against testdata/<name>.golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
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
	if got != string(want) {
		t.Errorf("%s drifted from golden.\ngot:\n%s\nwant:\n%s\n(run `go test ./internal/experiments -run Golden -update` if the change is intended)",
			name, got, string(want))
	}
}

func TestGoldenRenderMethods(t *testing.T) {
	rows := []MethodsRow{
		{Workload: "gups", Profiler: "tmp", DistinctPages: 270555, Observations: 1234567, OverheadPct: 3.21, OracleHitrate: 0.451},
		{Workload: "gups", Profiler: "autonuma", DistinctPages: 5552, Observations: 4096, OverheadPct: 0.42, OracleHitrate: 0.377},
		{Workload: "gups", Profiler: "badgertrap", DistinctPages: 260001, Observations: 9999999, OverheadPct: 212.5, OracleHitrate: 0.43},
	}
	checkGolden(t, "methods_render", RenderMethods(rows))
}

func TestGoldenRenderEpochSweep(t *testing.T) {
	rows := []EpochSweepRow{
		{Workload: "data-caching", EpochMultiple: 1, Hitrate: 0.912, MigratedPerEpoch: 150.4, Epochs: 32},
		{Workload: "data-caching", EpochMultiple: 2, Hitrate: 0.93, MigratedPerEpoch: 99.6, Epochs: 16},
		{Workload: "data-caching", EpochMultiple: 8, Hitrate: 0.951, MigratedPerEpoch: 20, Epochs: 4},
	}
	checkGolden(t, "epochsweep_render", RenderEpochSweep(rows))
}

func TestGoldenRenderOverhead(t *testing.T) {
	rows := []OverheadRow{
		{Workload: "gups", BaseNS: 1_000_000, AbitPct: 0.52, IBSDefPct: 1.3, IBS4xPct: 4.75, TMPFullPct: 2.11},
		{Workload: "lulesh", BaseNS: 2_000_000, AbitPct: 0, IBSDefPct: 0.01, IBS4xPct: 0.5, TMPFullPct: 0.25},
	}
	checkGolden(t, "overhead_render", RenderOverhead(rows))
}

func TestGoldenRenderSpeedup(t *testing.T) {
	res := SpeedupResult{
		Rows: []SpeedupRow{
			{Workload: "gups", EmulSpeedup: 1.13, SimSpeedup: 1.21, BaseHitrate: 0.55, TMPHitrate: 0.81},
			{Workload: "xsbench", EmulSpeedup: 0.997, SimSpeedup: 1.004, BaseHitrate: 0.9, TMPHitrate: 0.91},
		},
		EmulAvg: 1.04, EmulBest: 1.13, SimAvg: 1.1, SimBest: 1.21,
	}
	checkGolden(t, "speedup_render", RenderSpeedup(res))
}

func TestGoldenRenderTable4(t *testing.T) {
	res := Table4Result{
		Rows: []Table4Row{
			{Workload: "gups", ByRate: map[int]Table4Cell{
				1: {Abit: 5552, IBS: 104872, Both: 201},
				4: {Abit: 5552, IBS: 270555, Both: 255},
				8: {Abit: 5552, IBS: 301_001, Both: 260},
			}},
			{Workload: "web-serving", ByRate: map[int]Table4Cell{
				1: {Abit: 25186, IBS: 1650, Both: 1100},
				4: {Abit: 25186, IBS: 4263, Both: 2900},
				8: {Abit: 25186, IBS: 5510, Both: 3600},
			}},
		},
		Gain4x: 2.58, Gain8x: 1.14,
	}
	checkGolden(t, "table4_render", RenderTable4(res))
}

func TestGoldenRenderFig2(t *testing.T) {
	rows := []Fig2Row{
		{Workload: "gups", PTWEvents: 150000, CacheMiss: 120000, Ratio: 1.25},
		{Workload: "lulesh", PTWEvents: 9000, CacheMiss: 30000, Ratio: 0.3},
	}
	checkGolden(t, "fig2_render", RenderFig2(rows))
}

// fig5Fixture is shared by the text and CSV goldens.
func fig5Fixture() []Fig5Series {
	return []Fig5Series{
		{
			Workload:  "gups",
			Method:    "ibs(4x)",
			Summary:   stats.Summarize([]uint64{1, 1, 2, 3, 5, 8, 13, 21, 34, 55}),
			Points:    [][2]float64{{1, 0.2}, {8, 0.6}, {55, 1}},
			HotRecall: 0.42,
		},
		{
			Workload:  "gups",
			Method:    "truth",
			Summary:   stats.Summarize([]uint64{2, 2, 4, 4, 100}),
			Points:    [][2]float64{{2, 0.4}, {100, 1}},
			HotRecall: 1,
		},
	}
}

func TestGoldenRenderFig5(t *testing.T) {
	checkGolden(t, "fig5_render", RenderFig5(fig5Fixture()))
}

func TestGoldenFig5CSV(t *testing.T) {
	checkGolden(t, "fig5_csv", Fig5CSV(fig5Fixture()))
}

func TestGoldenRenderFig6(t *testing.T) {
	var res Fig6Result
	for _, ratio := range []int{8, 16, 32, 64, 128} {
		for i, m := range core.Methods {
			res.Points = append(res.Points, Fig6Point{
				Workload: "gups", Policy: "oracle", Method: m, Ratio: ratio,
				Hitrate: 0.9 - float64(ratio)/256 - float64(i)/100,
			})
		}
	}
	res.MaxOracleGain = 0.7
	res.MaxHistoryGain = 0.6
	checkGolden(t, "fig6_render", RenderFig6(res))
}

func TestGoldenRenderMultiTier(t *testing.T) {
	rows := []MultiTierRow{
		{Workload: "gups", Tiers: 2, Chain: "dram/nvm", Method: "abit", Hitrate: 0.61, Promotions: 1200, Demotions: 1100, DurationNS: 1_000_000},
		{Workload: "gups", Tiers: 2, Chain: "dram/nvm", Method: "tmp", Hitrate: 0.72, Promotions: 1350, Demotions: 1300, DurationNS: 970_000},
		{Workload: "gups", Tiers: 3, Chain: "dram/cxl/nvm", Method: "devprof", Hitrate: 0.58, Promotions: 900, Demotions: 850, DurationNS: 1_040_000},
		{Workload: "gups", Tiers: 3, Chain: "dram/cxl/nvm", Method: "tmp", Hitrate: 0.71, Promotions: 1500, Demotions: 1400, DurationNS: 985_000, Quarantined: 1},
		{Workload: "gups", Tiers: 4, Chain: "dram/cxl/nvm/ssd", Method: "tmp", Hitrate: 0.69, Promotions: 1480, Demotions: 1420, DurationNS: 990_000},
	}
	checkGolden(t, "multitier_render", RenderMultiTier(rows))
}

func TestGoldenRenderBWContend(t *testing.T) {
	rows := []BWContendRow{
		{Workload: "gups", Frac: 0, Arm: "clean", Hitrate: 0.72, TxCommitted: 2400, AbortedDirty: 0, ShadowHits: 310, Admitted: 0, Deferred: 0, Rejected: 0, DurationNS: 970_000},
		{Workload: "gups", Frac: 0.25, Arm: "clean", Hitrate: 0.66, TxCommitted: 1100, ShadowHits: 290, Admitted: 1390, Deferred: 800, Rejected: 120, DurationNS: 1_010_000},
		{Workload: "gups", Frac: 1.0, Arm: "clean", Hitrate: 0.71, TxCommitted: 2300, ShadowHits: 305, Admitted: 2605, Deferred: 90, Rejected: 0, DurationNS: 975_000},
		{Workload: "gups", Frac: 0.25, Arm: "chaos", Hitrate: 0.63, TxCommitted: 990, AbortedDirty: 130, ShadowHits: 250, Admitted: 1370, Deferred: 840, Rejected: 160, DurationNS: 1_030_000},
	}
	checkGolden(t, "bwcontend_render", RenderBWContend(rows))
}

func TestGoldenRenderColocation(t *testing.T) {
	res := ColocationResult{
		IdlerCount:     16,
		FilteredPTEs:   100_000,
		UnfilteredPTEs: 1_000_000,
		FilteredAbitNS: 50_000, UnfilteredAbitNS: 480_000,
		ProfiledPIDs: 4, TotalPIDs: 20,
		FilteredBusyPages: 9_900, UnfilteredBusyPages: 10_000,
	}
	checkGolden(t, "colocation_render", RenderColocation(res))
}

func TestGoldenRenderHeatmaps(t *testing.T) {
	h := stats.NewHeatmap(8, 4, 0, 80, 0, 4096)
	for i := int64(0); i < 8; i++ {
		h.Add(i*10, uint64(i)*512, uint64(i))
	}
	maps := []WorkloadHeatmap{{Workload: "gups", Grid: h}}
	checkGolden(t, "heatmaps_render", RenderHeatmaps("Fixture heatmaps", maps))
}
