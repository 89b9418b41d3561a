// Package autonuma models Linux's NUMA-balancing profiler, the
// incumbent the paper positions TMP against (§II-A): the kernel
// periodically walks a portion of each task's address space (256 MB by
// default) changing PTE permissions to inaccessible; the next access
// to an unmapped page takes a hint fault, identifying the accessing
// task and the touched page. The information is exact first-access
// data — but every observation costs a page fault, and the periodic
// PTE rewriting costs walks and TLB invalidations. TMP's A-bit
// scanning extracts strictly less information per page (no faulting
// task identity) at a small fraction of the cost; the autonuma-vs-TMP
// experiment quantifies that trade-off.
package autonuma

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

// Config parameterizes the balancer's profiling side.
type Config struct {
	// Interval is the virtual-ns period between protection passes
	// (task_numa_work cadence).
	Interval int64
	// WindowPages caps how many leaf PTEs one pass protects per
	// process (the 256 MB scan window, in pages, scaled).
	WindowPages int
	// FaultCost is the wall-clock cost of one hint fault (kernel
	// entry, task identification, mapping restore); Linux hint
	// faults cost a few microseconds.
	FaultCost int64
	// PerPTECost is the wall-clock cost of rewriting one PTE during
	// a protection pass.
	PerPTECost int64
}

// DefaultConfig mirrors kernel defaults at laptop scale.
func DefaultConfig() Config {
	return Config{
		Interval:    1_000_000_000,
		WindowPages: 4096,
		FaultCost:   3000,
		PerPTECost:  40,
	}
}

// Stats counts balancer activity.
type Stats struct {
	Passes     uint64
	Protected  uint64 // PTEs marked inaccessible across all passes
	HintFaults uint64
	OverheadNS int64 // protection passes + fault handling
}

// Scanner drives the protection passes and collects hint-fault
// observations.
type Scanner struct {
	cfg     Config
	machine *cpu.Machine
	stats   Stats
	next    int64
	// cursor remembers each process's scan position so successive
	// passes cover the address space round-robin, like
	// task_numa_work's mm->numa_scan_offset.
	cursor map[int]mem.VPN
	// Per-page hint-fault accumulation for the current epoch, held
	// dense: pages intern to stable ids once (the table persists
	// across epochs — working sets recur) and faults bump a slice
	// slot. active lists the ids touched this epoch so harvest zeroes
	// only those instead of reallocating a map every epoch.
	tab    *pageidx.Table[core.PageKey]
	counts []uint32
	active []uint32
}

// New installs the hint-fault handler and returns the scanner.
func New(cfg Config, m *cpu.Machine) (*Scanner, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("autonuma: interval %d must be positive", cfg.Interval)
	}
	if cfg.WindowPages <= 0 {
		return nil, fmt.Errorf("autonuma: window %d must be positive", cfg.WindowPages)
	}
	s := &Scanner{
		cfg:     cfg,
		machine: m,
		next:    cfg.Interval,
		cursor:  make(map[int]mem.VPN),
		tab:     pageidx.New(0, core.PageKeyHash),
	}
	m.SetHintFaultHandler(s.onHintFault)
	return s, nil
}

// onHintFault records the observation and charges the fault cost.
func (s *Scanner) onHintFault(o *trace.Outcome, _ mem.PFN) int64 {
	s.stats.HintFaults++
	s.bump(core.PageKey{PID: o.PID, VPN: mem.VPNOf(o.VAddr)})
	cost := s.machine.SoftCost(s.cfg.FaultCost)
	s.stats.OverheadNS += cost
	return cost
}

// bump counts one hint fault against a page's dense slot.
func (s *Scanner) bump(key core.PageKey) {
	id := s.tab.Intern(key)
	for int(id) >= len(s.counts) {
		s.counts = append(s.counts, 0)
	}
	if s.counts[id] == 0 {
		s.active = append(s.active, id)
	}
	s.counts[id]++
}

// Due reports whether a protection pass is due.
func (s *Scanner) Due(now int64) bool { return now >= s.next }

// PassIfDue runs a protection pass when the interval has elapsed,
// returning the pass cost (already recorded in the stats) and whether
// it ran. The caller charges the cost to the core running the kernel
// worker.
func (s *Scanner) PassIfDue(now int64, pids []int) (int64, bool) {
	if !s.Due(now) {
		return 0, false
	}
	for s.next <= now {
		s.next += s.cfg.Interval
	}
	return s.Pass(pids), true
}

// Pass protects the next window of each process's pages. Each
// protected PTE's cached translation must be invalidated for the
// permission change to take effect — the TLB-flush expense §II-A
// charges AutoNUMA for.
func (s *Scanner) Pass(pids []int) int64 {
	s.stats.Passes++
	var protected int
	for _, pid := range pids {
		table, ok := s.machine.Tables()[pid]
		if !ok {
			continue
		}
		start := s.cursor[pid]
		marked, last, wrapped := 0, start, false
		// Walk from the cursor, marking up to WindowPages leaves.
		table.WalkRange(func(vpn mem.VPN, pte *pagetable.PTE, huge bool) bool {
			if vpn < start {
				wrapped = true // note pages below the cursor exist
				return true
			}
			if marked >= s.cfg.WindowPages {
				return false
			}
			*pte |= pagetable.BitProtNone
			marked++
			last = vpn
			return true
		})
		if marked < s.cfg.WindowPages && wrapped {
			// Window ran off the end: wrap to the lowest pages.
			table.WalkRange(func(vpn mem.VPN, pte *pagetable.PTE, huge bool) bool {
				if vpn >= start || marked >= s.cfg.WindowPages {
					return false
				}
				*pte |= pagetable.BitProtNone
				marked++
				last = vpn
				return true
			})
		}
		s.cursor[pid] = last + 1
		protected += marked
	}
	s.stats.Protected += uint64(protected)
	cost := s.machine.SoftCost(int64(protected) * s.cfg.PerPTECost)
	// The permission change requires invalidating stale translations.
	cost += s.machine.FlushAllTLBs()
	s.stats.OverheadNS += cost
	return cost
}

// HarvestEpoch returns the hint-fault observations as an EpochStats in
// the same shape TMP produces (Abit field carries the fault counts so
// the policy machinery can rank on it), and resets the accumulator.
func (s *Scanner) HarvestEpoch(epoch int) core.EpochStats {
	stats := core.EpochStats{Epoch: epoch}
	sort.Slice(s.active, func(i, j int) bool {
		return core.PageKeyLess(s.tab.Key(s.active[i]), s.tab.Key(s.active[j]))
	})
	stats.Pages = make([]core.PageStat, 0, len(s.active))
	for _, id := range s.active {
		stats.Pages = append(stats.Pages, core.PageStat{
			Key:      s.tab.Key(id),
			Evidence: mem.Evidence{Abit: s.counts[id]},
		})
		s.counts[id] = 0
	}
	s.active = s.active[:0]
	return stats
}

// DistinctPages returns how many pages the current epoch has observed.
func (s *Scanner) DistinctPages() int { return len(s.active) }

// Stats returns a copy of the counters.
func (s *Scanner) Stats() Stats { return s.stats }
