// Quickstart: profile a GUPS-style workload with TMP and print the
// ten hottest pages.
//
// This is the smallest end-to-end use of the library: build a
// workload, assemble a simulated machine with the profiler attached,
// run a few million references, and read the ranked-pages interface
// that placement policies consume.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"tieredmem/internal/core"
	"tieredmem/internal/sim"
	"tieredmem/internal/workload"
)

func main() {
	// 1. A workload: eight GUPS processes doing random read-modify-
	//    writes over THP-backed tables.
	w := workload.MustNew("gups", workload.Config{Seed: 1, FirstPID: 100})

	// 2. A machine + TMP profiler. 4096 is the IBS op period (the
	//    "4x" rate at laptop scale); 4M references ≈ 25 scaled
	//    seconds of virtual time.
	cfg := sim.DefaultConfig(w, 4096, 4_000_000)
	runner, err := sim.New(cfg, w)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Run. Epochs are harvested every scaled second.
	res, err := runner.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %d refs in %.1f virtual ms across %d epochs\n",
		res.Refs, float64(res.DurationNS)/1e6, len(res.Epochs))
	fmt.Printf("profiling overhead: %.2f%% of CPU time\n", res.OverheadFraction()*100)

	// 4. Ask the profiler-policy interface for the hottest pages of
	//    the last full epoch (the final entry may be a short partial
	//    epoch with no A-bit scan in it), under TMP's combined rank.
	last := res.Epochs[len(res.Epochs)-1]
	if len(res.Epochs) > 1 {
		last = res.Epochs[len(res.Epochs)-2]
	}
	ranked := core.RankedPages(last, core.MethodCombined)
	fmt.Println("\nhottest pages (last epoch):")
	fmt.Println("rank  pid   vpn            abit  ibs  true-mem-accesses")
	for i := 0; i < len(ranked) && i < 10; i++ {
		ps := ranked[i]
		fmt.Printf("%4d  %4d  %#-12x  %4d  %3d  %d\n",
			i+1, ps.Key.PID, uint64(ps.Key.VPN), ps.Abit, ps.Trace, ps.True)
	}
}
