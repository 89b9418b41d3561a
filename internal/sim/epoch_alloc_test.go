package sim

import (
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/policy"
	"tieredmem/internal/testalloc"
	"tieredmem/internal/workload"
)

// timedEpochs is how many epochs TestPlacementEpochZeroAlloc times
// (after as many untimed ones).
const timedEpochs = 20

// TestPlacementEpochZeroAlloc pins the policy arm's steady-state epoch
// at zero allocations: once the run's scratch has grown, the harvest,
// Select through the run's selection scratch, the rank table,
// ApplySelection and the khugepaged pass reuse it. Every timed epoch
// must demote, so the rank table is built, and promote.
func TestPlacementEpochZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("warms two placement machines")
	}
	for _, tc := range []struct {
		name  string
		gen   string
		tiers int
		refs  int
		txmig bool
	}{
		{"xsbench-2tier", "xsbench", 2, 600_000, false},
		{"phase-shift-3tier-txmig", "phase-shift", 3, 1_000_000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := workload.MustNew(tc.gen, workload.Config{Seed: 42, FirstPID: 100})
			cfg := DefaultPlacementConfig(w, 4096, tc.refs, 16, policy.History{}, core.MethodCombined)
			chain, err := DefaultChain(w, 16, tc.tiers)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Tiers = chain
			cfg.TMP.EnableDevProf = chain.HasDevice()
			cfg.TxMigration = tc.txmig
			p, err := NewEpochProbe(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			idle := 0
			epoch := func() {
				promoted, demoted, err := p.Epoch()
				if err != nil {
					t.Fatal(err)
				}
				if promoted == 0 || demoted == 0 {
					idle++
				}
			}
			// One run of timedEpochs epochs: AllocsPerRun divides by its
			// run count in integers, so this reads the exact total.
			if allocs := testalloc.Count(func() {
				for i := 0; i < timedEpochs; i++ {
					epoch()
				}
			}); allocs != 0 {
				t.Errorf("%d steady-state placement epochs allocate %.0f times, want 0", timedEpochs, allocs)
			}
			if idle > 0 {
				t.Errorf("%d of %d epochs did not both promote and demote", idle, 2*timedEpochs)
			}
		})
	}
}
