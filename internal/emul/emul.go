// Package emul reproduces the paper's §VI-C evaluation vehicle: a
// BadgerTrap-based emulation framework for tiered memory on DRAM-only
// hardware. The framework keeps a list of "slow" memory locations,
// periodically sets protection (poison) bits on their pages, and
// injects latency in the protection-fault handler before granting
// access: 10 us per slow-memory fault, an additional 13 us when the
// faulting page is hot (queueing at the slow tier), and 50 us per page
// migration. The paper used it because real NVM required exotic
// boards and BIOS support; we keep it because it exercises the
// BadgerTrap poison machinery end to end and lets us report speedups
// under the paper's exact cost model alongside our simulator's native
// tier latencies.
package emul

import (
	"fmt"

	"tieredmem/internal/cpu"
	"tieredmem/internal/mem"
	"tieredmem/internal/trace"
)

// Costs is the paper's calibrated timing model.
type Costs struct {
	SlowAccessNS int64 // latency added per protection fault on a slow page
	HotExtraNS   int64 // additional latency when the slow page is hot
	MigrationNS  int64 // per-page migration cost
	// HotThreshold is the previous-epoch ground-truth access count at
	// which a page counts as hot for the HotExtraNS penalty.
	HotThreshold uint32
	// WindowNS is the re-protection period (the framework "sets the
	// protection bits periodically").
	WindowNS int64
}

// PaperCosts returns the constants from §VI-C: 50 us migration, 10 us
// per slow access fault, 13 us extra for hot pages, scaled-second
// windows.
func PaperCosts(windowNS int64) Costs {
	return Costs{
		SlowAccessNS: 10_000,
		HotExtraNS:   13_000,
		MigrationNS:  50_000,
		HotThreshold: 8,
		WindowNS:     windowNS,
	}
}

// Stats counts emulator activity.
type Stats struct {
	Windows     uint64
	Poisoned    uint64 // page-poisonings applied across all windows
	Faults      uint64 // protection faults taken on slow pages
	HotFaults   uint64
	InjectedNS  int64 // total latency injected via faults
	MigratedNS  int64 // total migration cost charged
	MigratedPgs uint64
}

// Emulator drives latency injection on one machine.
type Emulator struct {
	cfg     Costs
	machine *cpu.Machine
	stats   Stats
	next    int64
}

// New attaches an emulator to a machine and installs its
// protection-fault handler. The hot-page test reads each frame's
// all-time ground truth, so New turns on the machine's total column;
// attach the emulator before the machine's first epoch ends.
func New(cfg Costs, m *cpu.Machine) (*Emulator, error) {
	if cfg.WindowNS <= 0 {
		return nil, fmt.Errorf("emul: window %d must be positive", cfg.WindowNS)
	}
	e := &Emulator{cfg: cfg, machine: m, next: cfg.WindowNS}
	m.Phys.TrackTrueTotals()
	m.SetPoisonHandler(e.handleFault)
	return e, nil
}

// handleFault is the trap handler: add slow-memory latency (plus the
// hot-page penalty), then unpoison so subsequent accesses inside the
// window run at full speed — BadgerTrap's unpoison-on-fault.
func (e *Emulator) handleFault(o *trace.Outcome, pfn mem.PFN) (int64, bool) {
	e.stats.Faults++
	extra := e.machine.SoftCost(e.cfg.SlowAccessNS)
	// A page is hot when the current epoch already shows threshold
	// accesses or its lifetime total implies a sustained rate.
	phys := e.machine.Phys
	if phys.Page(pfn).Epoch.True >= e.cfg.HotThreshold || phys.TrueTotal(pfn) >= 4*uint64(e.cfg.HotThreshold) {
		e.stats.HotFaults++
		extra += e.machine.SoftCost(e.cfg.HotExtraNS)
	}
	e.stats.InjectedNS += extra
	return extra, true
}

// TickIfDue re-applies protection to every slow-tier page at window
// boundaries. It returns whether a window ran.
func (e *Emulator) TickIfDue(now int64) bool {
	if now < e.next {
		return false
	}
	for e.next <= now {
		e.next += e.cfg.WindowNS
	}
	e.Repoison()
	return true
}

// Repoison sets the protection bit on every page currently resident in
// the slow tier ("we maintain a list of slower memory locations and
// set protection bits on memory pages that belong to the list").
func (e *Emulator) Repoison() {
	e.stats.Windows++
	phys := e.machine.Phys
	tables := e.machine.Tables()
	phys.ForEachAllocated(func(pfn mem.PFN, pd *mem.PageDescriptor) {
		if phys.TierOf(pfn) == mem.FastTier {
			return
		}
		table, ok := tables[int(pd.PID)]
		if !ok {
			return
		}
		if table.SetPoison(pd.VPage, true) {
			e.stats.Poisoned++
		}
	})
	// The protection change must be visible: one shootdown per window.
	e.machine.FlushAllTLBs()
}

// ChargeMigration records the emulated cost of migrating n pages and
// returns the ns to charge the mover's core.
func (e *Emulator) ChargeMigration(n int) int64 {
	cost := e.machine.SoftCost(int64(n) * e.cfg.MigrationNS)
	e.stats.MigratedNS += cost
	e.stats.MigratedPgs += uint64(n)
	return cost
}

// Stats returns a copy of the counters.
func (e *Emulator) Stats() Stats { return e.stats }
