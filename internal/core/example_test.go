package core_test

import (
	"fmt"

	"tieredmem/internal/core"
	"tieredmem/internal/mem"
)

// ExampleRankedPages shows the profiler-policy interface: a harvest is
// ranked by TMP's combined evidence, ties preferring fast-tier
// residents (migration hysteresis).
func ExampleRankedPages() {
	harvest := core.EpochStats{Pages: []core.PageStat{
		{Key: core.PageKey{PID: 1, VPN: 0x10}, Tier: mem.SlowTier, Evidence: mem.Evidence{Abit: 1, Trace: 4}},
		{Key: core.PageKey{PID: 1, VPN: 0x20}, Tier: mem.FastTier, Evidence: mem.Evidence{Abit: 1, Trace: 0}},
		{Key: core.PageKey{PID: 1, VPN: 0x30}, Tier: mem.SlowTier, Evidence: mem.Evidence{Abit: 1, Trace: 0}},
		{Key: core.PageKey{PID: 1, VPN: 0x40}, Tier: mem.SlowTier, Evidence: mem.Evidence{Abit: 0, Trace: 0}},
	}}
	for _, ps := range core.RankedPages(harvest, core.MethodCombined) {
		fmt.Printf("vpn=%#x rank=%d tier=%v\n", uint64(ps.Key.VPN), ps.Rank(core.MethodCombined), ps.Tier)
	}
	// Output:
	// vpn=0x10 rank=5 tier=slow
	// vpn=0x20 rank=1 tier=fast
	// vpn=0x30 rank=1 tier=slow
}

// ExamplePageStat_Rank shows the three ranking arms the evaluation
// compares.
func ExamplePageStat_Rank() {
	ps := core.PageStat{Evidence: mem.Evidence{Abit: 2, Trace: 3}}
	fmt.Println(ps.Rank(core.MethodAbit), ps.Rank(core.MethodTrace), ps.Rank(core.MethodCombined))
	// Output: 2 3 5
}
