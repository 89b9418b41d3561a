package policy

import (
	"maps"
	"sort"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/mem"
	"tieredmem/internal/order"
)

// mkEpoch builds an epoch where page i (PID 1, VPN i) has the given
// counts: counts[i] = {abit, trace, true}.
func mkEpoch(epoch int, counts [][3]uint32) core.EpochStats {
	ep := core.EpochStats{Epoch: epoch}
	for i, c := range counts {
		ep.Pages = append(ep.Pages, core.PageStat{
			Key:      core.PageKey{PID: 1, VPN: mem.VPN(i)},
			Tier:     mem.SlowTier,
			Evidence: mem.Evidence{Abit: c[0], Trace: c[1], True: c[2]},
		})
	}
	return ep
}

func keys(sel Selection) []uint64 {
	var out []uint64
	for k := range sel {
		out = append(out, uint64(k.VPN))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestOracleSelectsFromNextEpoch(t *testing.T) {
	prev := mkEpoch(0, [][3]uint32{{9, 9, 9}, {0, 0, 0}})
	next := mkEpoch(1, [][3]uint32{{0, 0, 0}, {5, 5, 5}})
	sel := Oracle{}.Select(prev, next, core.MethodCombined, 1)
	if _, ok := sel[core.PageKey{PID: 1, VPN: 1}]; !ok || len(sel) != 1 {
		t.Errorf("oracle selected %v, want page 1 (hot next epoch)", keys(sel))
	}
}

func TestHistorySelectsFromPrevEpoch(t *testing.T) {
	prev := mkEpoch(0, [][3]uint32{{9, 9, 9}, {0, 0, 0}})
	next := mkEpoch(1, [][3]uint32{{0, 0, 0}, {5, 5, 5}})
	sel := History{}.Select(prev, next, core.MethodCombined, 1)
	if _, ok := sel[core.PageKey{PID: 1, VPN: 0}]; !ok || len(sel) != 1 {
		t.Errorf("history selected %v, want page 0 (hot last epoch)", keys(sel))
	}
}

func TestSelectionRespectsCapacity(t *testing.T) {
	ep := mkEpoch(0, [][3]uint32{{1, 0, 1}, {2, 0, 1}, {3, 0, 1}, {4, 0, 1}})
	sel := History{}.Select(ep, core.EpochStats{}, core.MethodCombined, 2)
	if len(sel) != 2 {
		t.Fatalf("selection size %d, want 2", len(sel))
	}
	// The two hottest (VPN 3 and 2).
	for _, vpn := range []mem.VPN{3, 2} {
		if _, ok := sel[core.PageKey{PID: 1, VPN: vpn}]; !ok {
			t.Errorf("hot page %d missing from %v", vpn, keys(sel))
		}
	}
}

func TestMethodSelectsEvidence(t *testing.T) {
	// Page 0: A-bit only. Page 1: trace only.
	ep := mkEpoch(0, [][3]uint32{{5, 0, 1}, {0, 5, 1}})
	selA := History{}.Select(ep, core.EpochStats{}, core.MethodAbit, 1)
	if _, ok := selA[core.PageKey{PID: 1, VPN: 0}]; !ok {
		t.Errorf("abit method ignored A-bit evidence")
	}
	selT := History{}.Select(ep, core.EpochStats{}, core.MethodTrace, 1)
	if _, ok := selT[core.PageKey{PID: 1, VPN: 1}]; !ok {
		t.Errorf("trace method ignored trace evidence")
	}
}

func TestDecayConvergesAndForgets(t *testing.T) {
	d := NewDecay(0.5)
	hotThenCold := mkEpoch(0, [][3]uint32{{8, 8, 8}, {0, 0, 0}})
	for i := 0; i < 3; i++ {
		d.Select(hotThenCold, core.EpochStats{}, core.MethodCombined, 1)
	}
	// Page 0 hot: selected.
	sel := d.Select(hotThenCold, core.EpochStats{}, core.MethodCombined, 1)
	if _, ok := sel[core.PageKey{PID: 1, VPN: 0}]; !ok {
		t.Fatalf("decay did not select the hot page")
	}
	// Now page 0 goes silent and page 1 becomes hot; the EWMA must
	// eventually switch over.
	flipped := mkEpoch(1, [][3]uint32{{0, 0, 0}, {8, 8, 8}})
	var switched bool
	for i := 0; i < 10; i++ {
		sel = d.Select(flipped, core.EpochStats{}, core.MethodCombined, 1)
		if _, ok := sel[core.PageKey{PID: 1, VPN: 1}]; ok {
			switched = true
			break
		}
	}
	if !switched {
		t.Errorf("decay never adapted to the new hot page")
	}
}

func TestDecayAlphaOneBehavesLikeHistory(t *testing.T) {
	d := NewDecay(1.0)
	ep := mkEpoch(0, [][3]uint32{{1, 0, 1}, {7, 0, 1}})
	sel := d.Select(ep, core.EpochStats{}, core.MethodCombined, 1)
	hist := History{}.Select(ep, core.EpochStats{}, core.MethodCombined, 1)
	if len(sel) != len(hist) {
		t.Fatalf("sizes differ")
	}
	for _, k := range order.SortedKeysFunc(hist, core.PageKeyLess) {
		if _, ok := sel[k]; !ok {
			t.Errorf("alpha=1 decay diverges from history at %v", k)
		}
	}
}

func TestEvaluateHitrateHandComputed(t *testing.T) {
	// Two epochs, capacity 1.
	// Epoch 0: page 0 has 10 true accesses, page 1 has 2.
	// Epoch 1: page 1 has 10, page 0 has 2.
	e0 := mkEpoch(0, [][3]uint32{{1, 9, 10}, {1, 1, 2}})
	e1 := mkEpoch(1, [][3]uint32{{1, 1, 2}, {1, 9, 10}})
	epochs := []core.EpochStats{e0, e1}

	// Oracle: epoch 0 picks page 0 (10 hits of 12), epoch 1 picks
	// page 1 (10 of 12): hitrate 20/24.
	hr := EvaluateHitrate(Oracle{}, epochs, core.MethodCombined, 1)
	if hr.Hits != 20 || hr.Total != 24 {
		t.Errorf("oracle hits/total = %d/%d, want 20/24", hr.Hits, hr.Total)
	}

	// History: epoch 0 has no prior evidence (0 hits), epoch 1 uses
	// epoch 0's ranks -> picks page 0 -> 2 hits. 2/24.
	hr2 := EvaluateHitrate(History{}, epochs, core.MethodCombined, 1)
	if hr2.Hits != 2 || hr2.Total != 24 {
		t.Errorf("history hits/total = %d/%d, want 2/24", hr2.Hits, hr2.Total)
	}
	if hr2.Hitrate() >= hr.Hitrate() {
		t.Errorf("history should lag oracle on a shifting pattern")
	}
}

func TestEvaluateHitrateCountsMigrations(t *testing.T) {
	e0 := mkEpoch(0, [][3]uint32{{9, 0, 9}, {0, 0, 0}})
	e1 := mkEpoch(1, [][3]uint32{{0, 0, 0}, {9, 0, 9}})
	hr := EvaluateHitrate(Oracle{}, []core.EpochStats{e0, e1}, core.MethodCombined, 1)
	if hr.Migrated != 1 {
		t.Errorf("Migrated = %d, want 1 (selection flipped once)", hr.Migrated)
	}
}

// TestReusableMatchesFresh checks that a policy with selection scratch
// of its own (Reusable) selects the same set as its zero value, which
// builds a fresh set per call, over a harvest sequence that grows,
// shrinks, goes empty and changes capacity. Decay keeps its own state,
// so Reusable hands it back unchanged.
func TestReusableMatchesFresh(t *testing.T) {
	mixed := agreementStats(64)
	for i := range mixed.Pages {
		if i%3 == 0 {
			mixed.Pages[i].Tier = mem.FastTier // rank ties now break on residency
		}
	}
	harvests := []core.EpochStats{
		agreementStats(40),
		agreementStats(300),
		agreementStats(12),
		{},
		agreementStats(301),
		mixed,
	}
	capacities := []int{8, 100, 200, 5, 0, 1, 64}
	for _, fresh := range []Policy{History{}, Oracle{}} {
		reused := Reusable(fresh)
		prev := core.EpochStats{}
		for i, next := range harvests {
			for _, capacity := range capacities {
				want := fresh.Select(prev, next, core.MethodCombined, capacity)
				got := reused.Select(prev, next, core.MethodCombined, capacity)
				if !maps.Equal(got, want) {
					t.Fatalf("%s harvest %d capacity %d: reused scratch selects %v, fresh %v",
						fresh.Name(), i, capacity, keys(got), keys(want))
				}
			}
			prev = next
		}
	}
	d := NewDecay(0.5)
	if Reusable(d) != Policy(d) {
		t.Errorf("Reusable changed a Decay policy")
	}
}

func TestCapacityForRatio(t *testing.T) {
	if CapacityForRatio(1000, 8) != 125 {
		t.Errorf("CapacityForRatio(1000,8) = %d", CapacityForRatio(1000, 8))
	}
	if CapacityForRatio(3, 8) != 1 {
		t.Errorf("capacity floor broken")
	}
	if CapacityForRatio(100, 0) != 100 {
		t.Errorf("ratio 0 not treated as 1")
	}
}
