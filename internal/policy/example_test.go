package policy_test

import (
	"fmt"

	"tieredmem/internal/core"
	"tieredmem/internal/mem"
	"tieredmem/internal/policy"
)

// ExampleEvaluateHitrate replays two epochs through the Oracle and
// History policies offline, the way Fig. 6 is computed.
func ExampleEvaluateHitrate() {
	page := func(vpn uint64, rank, truth uint32) core.PageStat {
		return core.PageStat{
			Key:      core.PageKey{PID: 1, VPN: mem.VPN(vpn)},
			Evidence: mem.Evidence{Abit: rank, True: truth},
		}
	}
	epochs := []core.EpochStats{
		{Epoch: 0, Pages: []core.PageStat{page(1, 9, 10), page(2, 1, 2)}},
		{Epoch: 1, Pages: []core.PageStat{page(1, 1, 2), page(2, 9, 10)}},
	}
	oracle := policy.EvaluateHitrate(policy.Oracle{}, epochs, core.MethodAbit, 1)
	history := policy.EvaluateHitrate(policy.History{}, epochs, core.MethodAbit, 1)
	fmt.Printf("oracle  %d/%d = %.3f\n", oracle.Hits, oracle.Total, oracle.Hitrate())
	fmt.Printf("history %d/%d = %.3f\n", history.Hits, history.Total, history.Hitrate())
	// Output:
	// oracle  20/24 = 0.833
	// history 2/24 = 0.083
}

// ExampleCapacityForRatio converts Fig. 6's tier ratios into page
// capacities.
func ExampleCapacityForRatio() {
	for _, ratio := range policy.Fig6Ratios {
		fmt.Printf("1/%d -> %d pages\n", ratio, policy.CapacityForRatio(4096, ratio))
	}
	// Output:
	// 1/8 -> 512 pages
	// 1/16 -> 256 pages
	// 1/32 -> 128 pages
	// 1/64 -> 64 pages
	// 1/128 -> 32 pages
}
