// numa: run TMP on a two-socket machine with NVM exposed as a CPU-less
// NUMA node — the configuration the Linux community proposals the
// paper cites (§II-A) converge on. The example compares local-first
// and interleaved allocation, breaking memory traffic down by serving
// node, and shows that the profiler's view is unchanged: hot pages are
// hot regardless of which node holds them.
//
//	go run ./examples/numa
package main

import (
	"fmt"
	"log"

	"tieredmem/internal/core"
	"tieredmem/internal/mem"
	"tieredmem/internal/numa"
	"tieredmem/internal/sim"
	"tieredmem/internal/trace"
	"tieredmem/internal/workload"
)

// tierCounter is a retirement observer counting memory accesses by
// the node that served them.
type tierCounter struct {
	phys    *mem.PhysMem
	perTier []uint64
}

func (c *tierCounter) ObserveRetire(o *trace.Outcome, _ int) int64 {
	if o.Source.IsMemory() {
		c.perTier[c.phys.TierOf(mem.PFNOf(o.PAddr))]++
	}
	return 0
}

func main() {
	for _, pol := range []struct {
		name string
		p    numa.AllocPolicy
	}{{"local-first", numa.LocalFirst}, {"interleave", numa.Interleave}} {
		w := workload.MustNew("data-caching", workload.Config{Seed: 4, FirstPID: 100})
		footPages := int(w.FootprintBytes() >> mem.PageShift)

		topo := numa.Topology{
			Sockets:             2,
			CoresPerSocket:      3,
			RemoteFactor:        1.6,
			DRAMFramesPerSocket: footPages/3 + 1,
			NVMFrames:           footPages,
		}
		cfg := sim.DefaultConfig(w, 4096, 4_000_000)
		cfg.Tiers = topo.Tiers()
		runner, err := sim.New(cfg, w)
		if err != nil {
			log.Fatal(err)
		}
		if err := topo.Attach(runner.Machine, pol.p); err != nil {
			log.Fatal(err)
		}

		counter := &tierCounter{phys: runner.Machine.Phys, perTier: make([]uint64, len(cfg.Tiers))}
		runner.Machine.AddObserver(counter)
		res, err := runner.Run()
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("== %s ==\n", pol.name)
		fmt.Printf("duration %.1fms, %d epochs\n", float64(res.DurationNS)/1e6, len(res.Epochs))
		var total uint64
		for _, n := range counter.perTier {
			total += n
		}
		for t := mem.TierID(0); int(t) <= topo.Sockets; t++ {
			name := fmt.Sprintf("dram-node%d", t)
			if t == topo.NVMTier() {
				name = "nvm-node"
			}
			fmt.Printf("  %-11s %6.1f%% of memory accesses\n", name,
				float64(counter.perTier[t])/float64(total)*100)
		}

		// The profiler is oblivious to the topology: hottest pages
		// rank the same way.
		if len(res.Epochs) > 1 {
			ranked := core.RankedPages(res.Epochs[len(res.Epochs)-2], core.MethodCombined)
			n := 3
			if len(ranked) < n {
				n = len(ranked)
			}
			fmt.Printf("  hottest pages: ")
			for i := 0; i < n; i++ {
				fmt.Printf("pid=%d vpn=%#x rank=%d  ",
					ranked[i].Key.PID, uint64(ranked[i].Key.VPN), ranked[i].Rank(core.MethodCombined))
			}
			fmt.Println()
		}
		fmt.Println()
	}
}
