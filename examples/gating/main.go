// gating: watch the HWPC activity monitor switch the expensive
// profilers on and off as a workload moves between memory-quiet and
// memory-intensive phases (the paper's §III-B4 first optimization).
//
// LULESH's stencil phases are cache-friendly (LLC misses collapse
// between sweeps) while GUPS is permanently memory-bound; running
// LULESH shows the trace engine being gated off and on, while the
// A-bit scanner follows the TLB-miss gauge.
//
//	go run ./examples/gating
package main

import (
	"fmt"
	"log"

	"tieredmem/internal/sim"
	"tieredmem/internal/workload"
)

func main() {
	for _, name := range []string{"lulesh", "gups"} {
		w := workload.MustNew(name, workload.Config{Seed: 3, FirstPID: 100})
		cfg := sim.DefaultConfig(w, 4096, 3_000_000)
		cfg.TMP.Gating = true
		runner, err := sim.New(cfg, w)
		if err != nil {
			log.Fatal(err)
		}
		res, err := runner.Run()
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("== %s ==\n", name)
		fmt.Printf("duration %.1fms, %d epochs\n", float64(res.DurationNS)/1e6, len(res.Epochs))
		for _, g := range runner.Profiler.Monitor.States() {
			fmt.Printf("gauge %-10s active=%-5v peak-window=%-8d toggles=%d\n",
				g.Event, g.Active, g.MaxDelta, g.Toggles)
		}
		ibsStats := runner.Profiler.IBS.Stats()
		abitStats := runner.Profiler.Abit.Stats()
		fmt.Printf("ibs: %d samples delivered (engine enabled=%v)\n",
			ibsStats.Delivered, runner.Profiler.IBS.Enabled())
		fmt.Printf("abit: %d scans, %d pages observed (scanner enabled=%v)\n\n",
			abitStats.Scans, abitStats.PagesAccessed, runner.Profiler.Abit.Enabled())
	}
}
