// Package abit implements TMP's A-bit driver (§III-B2): a software
// mechanism that periodically walks the page tables of profiled
// processes, test-and-clears the PTE Accessed bit of every valid
// entry, and accumulates the observations in the page descriptors.
//
// Following the paper's third optimization, the driver does NOT issue
// a TLB shootdown after clearing A bits by default: on x86, clearing
// the accessed bit without a flush cannot corrupt data, and the stale
// TLB entry merely delays the next A-bit set until natural eviction.
// The simulated TLB reproduces that artifact faithfully. A
// configuration option restores the shootdown for software that
// requires it (and for the ablation benchmarks).
package abit

import (
	"fmt"

	"tieredmem/internal/cpu"
	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/pagetable"
	"tieredmem/internal/telemetry"
)

// Config parameterizes the driver.
type Config struct {
	// Interval is the virtual-ns period between scans (the paper
	// walks page tables every second).
	Interval int64
	// PerPTECost is the virtual-ns cost of visiting one valid PTE
	// (TestClearPageReferenced plus bookkeeping).
	PerPTECost int64
	// Shootdown, when true, flushes all TLBs after every scan (the
	// expensive configuration the paper's optimization avoids).
	Shootdown bool
}

// DefaultConfig returns the paper's production configuration: 1-second
// scans, no shootdown.
func DefaultConfig() Config {
	return Config{
		Interval:   1_000_000_000,
		PerPTECost: 20,
		Shootdown:  false,
	}
}

// Stats exposes driver counters.
type Stats struct {
	Scans         uint64
	PTEsVisited   uint64
	PagesAccessed uint64 // leaf PTEs found with A set across all scans
	HugeAccessed  uint64 // of those, 2 MiB leaves
	OverheadNS    int64

	// Aborts counts scans the fault plane cut short mid-walk. An
	// aborted scan harvests (and clears) only a prefix of the mapped
	// leaves, so its evidence under-reports every region after the
	// abort point.
	Aborts uint64
}

// FaultRate returns injected-fault failures over attempts for the
// profiler's quarantine arithmetic: aborted scans over scans run.
func (s Stats) FaultRate() (failures, attempts uint64) {
	return s.Aborts, s.Scans
}

// LeafObserver is notified of every leaf PTE found with its A bit set
// during a scan; experiment harnesses use it to build detection sets
// (Table IV) and heatmaps (Fig. 4). now is the virtual scan time; vpn
// is the leaf's base virtual page and pfn its base frame.
type LeafObserver func(now int64, pid int, vpn mem.VPN, pfn mem.PFN, huge bool)

// Scanner is the A-bit driver bound to one machine.
type Scanner struct {
	cfg      Config
	machine  *cpu.Machine
	stats    Stats
	disabled bool
	// quarantined is the sticky disabled state: once the profiler
	// parks the mechanism here, no Enable may resurrect it.
	quarantined bool
	nextScan    int64
	onLeaf      LeafObserver
	// faults, when non-nil, can abort walks partway.
	faults *fault.Plane

	// Telemetry (nil handles no-op when telemetry is off).
	tel         *telemetry.Tracer
	ctrScans    *telemetry.Counter
	ctrPTEs     *telemetry.Counter
	ctrPages    *telemetry.Counter
	ctrHuge     *telemetry.Counter
	ctrOverhead *telemetry.Counter
}

// SetTracer attaches the telemetry layer: every scan emits a
// KindAbitScan span and syncs the abit/* counters. Record-only — scan
// scheduling, costs, and results are unchanged.
func (s *Scanner) SetTracer(t *telemetry.Tracer) {
	s.tel = t
	s.ctrScans = t.Counter("abit/scans")
	s.ctrPTEs = t.Counter("abit/ptes_visited")
	s.ctrPages = t.Counter("abit/pages_accessed")
	s.ctrHuge = t.Counter("abit/huge_accessed")
	s.ctrOverhead = t.Counter("abit/overhead_ns")
}

// New builds a scanner.
func New(cfg Config, m *cpu.Machine) (*Scanner, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("abit: interval %d must be positive", cfg.Interval)
	}
	if cfg.PerPTECost < 0 {
		return nil, fmt.Errorf("abit: per-PTE cost %d must be non-negative", cfg.PerPTECost)
	}
	return &Scanner{cfg: cfg, machine: m, nextScan: cfg.Interval}, nil
}

// Enable resumes scanning (HWPC gating toggles this); a no-op once the
// scanner is quarantined.
func (s *Scanner) Enable() {
	if s.quarantined {
		return
	}
	s.disabled = false
}

// Disable pauses scanning.
func (s *Scanner) Disable() { s.disabled = true }

// Enabled reports whether scans run.
func (s *Scanner) Enabled() bool { return !s.disabled }

// Quarantine disables scanning permanently: the profiler decided this
// mechanism's fault rate makes its evidence corrupt. Unlike Disable,
// no later Enable reverses it.
func (s *Scanner) Quarantine() {
	s.quarantined = true
	s.disabled = true
}

// Quarantined reports whether the scanner is permanently off.
func (s *Scanner) Quarantined() bool { return s.quarantined }

// SetFaultPlane attaches the fault-injection plane. nil (the default)
// injects nothing.
func (s *Scanner) SetFaultPlane(p *fault.Plane) { s.faults = p }

// Due reports whether a scan is due at virtual time now.
func (s *Scanner) Due(now int64) bool { return now >= s.nextScan }

// ScanResult summarizes one scan.
type ScanResult struct {
	PTEsVisited   int
	PagesAccessed int // leaf PTEs with A set (a huge leaf counts once)
	HugeAccessed  int
	CostNS        int64
	// Aborted marks a scan the fault plane cut short: only a prefix of
	// the mapped leaves was visited (and only their A bits cleared).
	Aborted bool
}

// SetLeafObserver registers the per-leaf observation hook.
func (s *Scanner) SetLeafObserver(fn LeafObserver) { s.onLeaf = fn }

// ScanIfDue runs a scan when the interval has elapsed. pids selects
// the processes to walk (the TMP daemon's resource filter supplies
// this set; Table I: A-bit overhead is proportional to the PIDs
// covered). The returned cost has already been added to the stats; the
// caller charges it to the core running the daemon.
func (s *Scanner) ScanIfDue(now int64, pids []int) (ScanResult, bool) {
	if !s.Due(now) {
		return ScanResult{}, false
	}
	// Schedule strictly forward even if the caller checked late.
	for s.nextScan <= now {
		s.nextScan += s.cfg.Interval
	}
	if s.disabled {
		return ScanResult{}, false
	}
	return s.Scan(now, pids), true
}

// Scan walks the page tables of the given processes immediately,
// harvesting and clearing A bits — gather_a_history() in the paper.
// A 2 MiB leaf yields one observation (one PTE, one A bit): that
// observation is credited to all 512 backing frames' descriptors,
// because the A bit genuinely cannot say which 4 KiB page inside the
// huge mapping was touched. That granularity loss is real and is what
// trace-based profiling compensates for.
func (s *Scanner) Scan(now int64, pids []int) ScanResult {
	var res ScanResult
	phys := s.machine.Phys
	// budget < 0 means unlimited. When the fault plane aborts this
	// scan, the walk bails after visiting frac of the mapped leaves:
	// the cost of the visited prefix is still paid, A bits after the
	// abort point stay set (and will be re-harvested next round), and
	// every region past the abort is simply invisible this epoch.
	budget := -1
	if frac, abort := s.faults.AbortAbitScan(); abort {
		total := 0
		for _, pid := range pids {
			if table, ok := s.machine.Tables()[pid]; ok {
				total += table.Mapped()
			}
		}
		budget = int(frac * float64(total))
		res.Aborted = true
		s.stats.Aborts++
	}
	for _, pid := range pids {
		if budget == 0 {
			break
		}
		table, ok := s.machine.Tables()[pid]
		if !ok {
			continue
		}
		visited := table.WalkRange(func(vpn mem.VPN, pte *pagetable.PTE, huge bool) bool {
			if budget == 0 {
				return false
			}
			if budget > 0 {
				budget--
			}
			if !pte.Accessed() {
				return true
			}
			res.PagesAccessed++
			base := pte.PFN()
			if huge {
				res.HugeAccessed++
				for i := 0; i < mem.HugePages; i++ {
					pd := phys.Page(base + mem.PFN(i))
					if pd.Epoch.Abit != ^uint32(0) {
						pd.Epoch.Abit++
					}
				}
			} else {
				pd := phys.Page(base)
				if pd.Epoch.Abit != ^uint32(0) {
					pd.Epoch.Abit++
				}
			}
			if s.onLeaf != nil {
				s.onLeaf(now, pid, vpn, base, huge)
			}
			*pte &^= pagetable.BitAccessed
			return true
		})
		res.PTEsVisited += visited
	}
	res.CostNS = s.machine.SoftCost(int64(res.PTEsVisited) * s.cfg.PerPTECost)
	if s.cfg.Shootdown {
		res.CostNS += s.machine.FlushAllTLBs()
	}
	s.stats.Scans++
	s.stats.PTEsVisited += uint64(res.PTEsVisited)
	s.stats.PagesAccessed += uint64(res.PagesAccessed)
	s.stats.HugeAccessed += uint64(res.HugeAccessed)
	s.stats.OverheadNS += res.CostNS
	s.ctrScans.Set(s.stats.Scans)
	s.ctrPTEs.Set(s.stats.PTEsVisited)
	s.ctrPages.Set(s.stats.PagesAccessed)
	s.ctrHuge.Set(s.stats.HugeAccessed)
	s.ctrOverhead.Set(uint64(s.stats.OverheadNS))
	s.tel.EmitAbitScan(now, res.CostNS, res.PTEsVisited, res.PagesAccessed, res.HugeAccessed)
	return res
}

// Stats returns a copy of the counters.
func (s *Scanner) Stats() Stats { return s.stats }

// Interval returns the configured scan period.
func (s *Scanner) Interval() int64 { return s.cfg.Interval }
