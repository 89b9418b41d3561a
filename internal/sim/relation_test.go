package sim

import (
	"reflect"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/policy"
	"tieredmem/internal/workload"
)

// TestSilentIBSIsAbitOnly checks a run-level relation: an IBS period
// longer than the run tags no op (a reference issues at most OpsPerRef
// = 3 ops), so no trace sample exists and on a two-tier chain, which
// has no device tier, the combined rank (A-bit + trace + device counts)
// is the A-bit rank. Placing by either must give the same run. Each
// configuration migrates, so the relation is not vacuous, and at the
// default period the two methods must differ, so the relation is not
// blind to the method either.
func TestSilentIBSIsAbitOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve placements")
	}
	const refs = 500_000
	run := func(gen string, ratio, period int, m core.Method) PlacementResult {
		t.Helper()
		w := workload.MustNew(gen, workload.Config{Seed: 42, FirstPID: 100})
		res, err := RunPlacement(DefaultPlacementConfig(w, period, refs, ratio, policy.History{}, m), w)
		if err != nil {
			t.Fatalf("%s ratio %d period %d %v: %v", gen, ratio, period, m, err)
		}
		res.Arm = "" // names the method
		return res
	}
	for _, tc := range []struct {
		gen   string
		ratio int
	}{
		{"data-caching", 4},
		{"web-serving", 4},
		{"phase-shift", 4},
	} {
		silent := 3*refs + 1
		abit := run(tc.gen, tc.ratio, silent, core.MethodAbit)
		if abit.Promotions == 0 {
			t.Errorf("%s ratio %d: no promotions, so the relation checks nothing", tc.gen, tc.ratio)
		}
		if combined := run(tc.gen, tc.ratio, silent, core.MethodCombined); !reflect.DeepEqual(combined, abit) {
			t.Errorf("%s ratio %d, IBS period %d: combined rank places differently from A-bit rank\ncombined %+v\nabit     %+v",
				tc.gen, tc.ratio, silent, combined, abit)
		}
		if reflect.DeepEqual(run(tc.gen, tc.ratio, 4096, core.MethodAbit), run(tc.gen, tc.ratio, 4096, core.MethodCombined)) {
			t.Errorf("%s ratio %d: at the default IBS period the combined rank places exactly like the A-bit rank", tc.gen, tc.ratio)
		}
	}
}
