// Package badgertrap implements the BadgerTrap-based access profiler
// the paper describes in §II-B and that Thermostat builds on: chosen
// pages' PTEs are poisoned with a reserved bit and flushed from the
// TLB, so every subsequent hardware page walk to them raises a
// protection fault. The fault handler counts the event and leaves the
// poison in place while the translation lands in the TLB — the page
// then runs at full speed until its TLB entry is evicted, and the next
// walk faults again. The per-page fault count therefore estimates the
// page's TLB-miss count, which Thermostat uses as a proxy for access
// frequency.
//
// The approach is exact about which page faulted but, as the paper
// notes, is "prone to fault overhead and assumes that the number of
// TLB misses and the number of cache misses to a page are similar,
// which may not hold for hot pages" — the methods-comparison
// experiment quantifies both failure modes against TMP.
package badgertrap

import (
	"fmt"
	"sort"

	"tieredmem/internal/core"
	"tieredmem/internal/core/pageidx"
	"tieredmem/internal/cpu"
	"tieredmem/internal/mem"
	"tieredmem/internal/pagetable"
	"tieredmem/internal/trace"
)

// Config parameterizes the profiler.
type Config struct {
	// FaultCost is the wall-clock cost of one BadgerTrap fault
	// (trap, unpoison, install, repoison).
	FaultCost int64
	// PerPTECost is the wall-clock cost of poisoning one PTE during
	// Track.
	PerPTECost int64
}

// DefaultConfig mirrors the BadgerTrap paper's measured ~1 us fault
// cost.
func DefaultConfig() Config {
	return Config{FaultCost: 1000, PerPTECost: 30}
}

// Stats counts profiler activity.
type Stats struct {
	Tracked    uint64 // PTEs poisoned by Track calls
	Faults     uint64
	OverheadNS int64
}

// Profiler drives BadgerTrap-style counting on one machine.
type Profiler struct {
	cfg     Config
	machine *cpu.Machine
	stats   Stats
	// Per-page fault counts for the current epoch, held dense: pages
	// intern to stable ids once (the table persists across epochs —
	// tracked footprints recur) and faults bump a slice slot. active
	// lists the ids touched this epoch so harvest zeroes only those
	// instead of reallocating a map every epoch.
	tab    *pageidx.Table[core.PageKey]
	counts []uint32
	active []uint32
}

// New installs the poison-fault handler and returns the profiler. It
// cannot be combined with the emul package's latency emulator — both
// own the machine's single poison handler.
func New(cfg Config, m *cpu.Machine) (*Profiler, error) {
	if cfg.FaultCost < 0 || cfg.PerPTECost < 0 {
		return nil, fmt.Errorf("badgertrap: costs must be non-negative")
	}
	p := &Profiler{
		cfg:     cfg,
		machine: m,
		tab:     pageidx.New(0, core.PageKeyHash),
	}
	m.SetPoisonHandler(p.onFault)
	return p, nil
}

// onFault counts the access; the poison stays set (unpoison=false), so
// the next page walk to this page faults again — TLB-miss counting.
// The fault cost is deliberately NOT time-compressed: fault volume
// scales with executed work (TLB misses), not with wall-clock
// intervals, so the per-event cost keeps its real magnitude. This is
// why full-footprint BadgerTrap tracking is brutally expensive on
// TLB-thrashing workloads (the BadgerTrap paper reports multi-x
// slowdowns; Thermostat samples ~0.5% of pages to stay usable).
func (p *Profiler) onFault(o *trace.Outcome, _ mem.PFN) (int64, bool) {
	p.stats.Faults++
	p.bump(core.PageKey{PID: o.PID, VPN: mem.VPNOf(o.VAddr)})
	cost := p.cfg.FaultCost
	p.stats.OverheadNS += cost
	return cost, false
}

// bump counts one fault against a page's dense slot.
func (p *Profiler) bump(key core.PageKey) {
	id := p.tab.Intern(key)
	for int(id) >= len(p.counts) {
		p.counts = append(p.counts, 0)
	}
	if p.counts[id] == 0 {
		p.active = append(p.active, id)
	}
	p.counts[id]++
}

// sortActive orders the epoch's touched ids canonically by page key.
func (p *Profiler) sortActive() {
	sort.Slice(p.active, func(i, j int) bool {
		return core.PageKeyLess(p.tab.Key(p.active[i]), p.tab.Key(p.active[j]))
	})
}

// Track poisons every present leaf PTE of the given processes and
// flushes the TLBs so counting starts immediately. It returns the
// setup cost (already recorded), which the caller charges to the core
// running the tool.
func (p *Profiler) Track(pids []int) int64 {
	var marked int
	for _, pid := range pids {
		table, ok := p.machine.Tables()[pid]
		if !ok {
			continue
		}
		table.WalkRange(func(vpn mem.VPN, pte *pagetable.PTE, huge bool) bool {
			*pte |= pagetable.BitPoison
			marked++
			return true
		})
	}
	p.stats.Tracked += uint64(marked)
	cost := p.machine.SoftCost(int64(marked) * p.cfg.PerPTECost)
	cost += p.machine.FlushAllTLBs()
	p.stats.OverheadNS += cost
	return cost
}

// HarvestEpoch returns per-page fault counts as an EpochStats (counts
// in the Abit field for rank compatibility) and resets the
// accumulator.
func (p *Profiler) HarvestEpoch(epoch int) core.EpochStats {
	stats := core.EpochStats{Epoch: epoch}
	p.sortActive()
	stats.Pages = make([]core.PageStat, 0, len(p.active))
	for _, id := range p.active {
		stats.Pages = append(stats.Pages, core.PageStat{Key: p.tab.Key(id), Evidence: mem.Evidence{Abit: p.counts[id]}})
		p.counts[id] = 0
	}
	p.active = p.active[:0]
	return stats
}

// DistinctPages returns how many pages have faulted this epoch.
func (p *Profiler) DistinctPages() int { return len(p.active) }

// Stats returns a copy of the counters.
func (p *Profiler) Stats() Stats { return p.stats }
