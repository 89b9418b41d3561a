// Package cpu is the simulated processor: cores that execute memory
// references through TLB -> page walk -> cache hierarchy -> tiered
// memory, with hardware-faithful A/D-bit semantics, a per-core PMU,
// and retirement hooks that the IBS/PEBS sampling engine attaches to.
// All timing is virtual nanoseconds; nothing reads the wall clock.
package cpu

import (
	"fmt"

	"tieredmem/internal/cache"
	"tieredmem/internal/mem"
	"tieredmem/internal/pagetable"
	"tieredmem/internal/pmu"
	"tieredmem/internal/tlb"
	"tieredmem/internal/trace"
)

// Latency model (virtual ns). Memory latencies come from the tier
// specs; everything on-chip is fixed here.
const (
	LatBaseOp   = 1  // pipeline cost of any retired memory op
	LatL1       = 1  // L1D hit
	LatL2       = 5  // L2 hit
	LatLLC      = 14 // LLC hit
	LatL2TLB    = 2  // translation served by the STLB
	LatPageWalk = 30 // hardware page-table walk (PTW caches assumed warm)
	// LatMinorFault is the kernel cost of a first-touch page fault
	// (allocate + map).
	LatMinorFault = 2000
	// LatHugeFault is the kernel cost of a first-touch THP fault
	// (allocate + zero a 2 MiB region).
	LatHugeFault = 30000
	// LatIPI is the cost of one inter-processor interrupt, the unit
	// of TLB-shootdown expense the paper's §III-B4 optimization
	// avoids.
	LatIPI = 4000
	// LatCtxSwitch is the direct wall-clock cost of a context switch.
	LatCtxSwitch = 3000
)

// OpsPerRef is the number of micro-ops one memory reference represents
// (the memory op plus its surrounding ALU ops).
const OpsPerRef = 3

// RetireObserver is notified after every retired memory reference.
// Implementations return extra virtual time to charge the executing
// core — that is how profiling overhead becomes visible in end-to-end
// run time. ops is the number of micro-ops the reference represents,
// OpsPerRef. The Outcome pointer is only valid for the duration of the
// call.
type RetireObserver interface {
	ObserveRetire(o *trace.Outcome, ops int) int64
}

// FaultHandler allocates a frame for a faulting (pid, vpn). The
// default handler implements first-come-first-allocate into the fast
// tier with spill, the paper's baseline placement.
type FaultHandler func(pid int, vpn mem.VPN, write bool) (mem.PFN, error)

// HugeHint reports whether a faulting (pid, vpn) belongs to a region
// the kernel would back with transparent huge pages (HPC heaps in the
// evaluation). When it returns true the machine attempts a 2 MiB
// allocation and mapping, falling back to a base page when no
// contiguous run exists — THP's own fallback.
type HugeHint func(pid int, vpn mem.VPN) bool

// PoisonHandler is invoked when a page walk hits a PTE with the
// BadgerTrap reserved bit set; pfn is the frame the access targets. It
// returns the extra latency to inject and whether to unpoison the PTE
// (BadgerTrap's fault handler unpoisons, installs the translation, and
// repoisons later; the emul package models the latency-injection
// variant). The handler may be nil, in which case poisoned PTEs behave
// like normal present PTEs.
type PoisonHandler func(o *trace.Outcome, pfn mem.PFN) (extra int64, unpoison bool)

// HintFaultHandler is invoked when a page walk hits a PTE carrying the
// AutoNUMA PROT_NONE hint bit; pfn is the frame the access targets.
// The handler returns the fault-handling latency to inject; the walker
// always clears the hint (NUMA balancing restores the mapping once the
// faulting task is identified).
type HintFaultHandler func(o *trace.Outcome, pfn mem.PFN) int64

// Core is one simulated CPU core.
type Core struct {
	ID    int
	TLB   *tlb.TLB
	Cache *cache.Hierarchy
	PMU   pmu.PMU

	clock      int64
	nextSwitch int64 // next context-switch time; 0 disables
	ctxPeriod  int64
	machine    *Machine
	outcome    trace.Outcome // reused across Execute calls

	// CtxSwitches counts context switches taken on this core.
	CtxSwitches uint64
}

// Now returns the core's virtual clock in ns.
func (c *Core) Now() int64 { return c.clock }

// AdvanceClock charges extra virtual time to the core (used by
// software components running on it: profiler daemons, page movers).
func (c *Core) AdvanceClock(ns int64) {
	if ns < 0 {
		panic("cpu: negative clock advance")
	}
	c.clock += ns
}

// Config assembles a Machine.
type Config struct {
	Cores int
	L1TLB tlb.Config
	L2TLB tlb.Config
	L1D   cache.Config
	L2    cache.Config
	LLC   cache.Config
	// PrefetchDegree of 0 disables the prefetcher.
	PrefetchDegree int
	// SoftCostDiv divides every software/OS cost (fault handling,
	// IPIs, context switches) to compensate for time compression:
	// scaled runs compress one testbed second into ScaledSecond of
	// virtual time, so wall-clock OS costs must compress by the same
	// factor to preserve cost-per-epoch ratios. 0 or 1 means real
	// time. Hardware latencies (caches, memory) never scale — they
	// are per-access, and the access count is what compression
	// reduces.
	SoftCostDiv int64
	// CtxSwitchNS is the per-core context-switch period in virtual
	// ns; each switch flushes the core's TLB (no PCID), which is what
	// eventually re-arms A bits cleared without a shootdown — the
	// kernel's own justification for skipping the flush
	// (ptep_clear_flush_young: "it will eventually be flushed by a
	// context switch ... anyway"). 0 disables switching (an ablation
	// arm: it exposes how A-bit profiling starves on TLB-resident hot
	// sets).
	CtxSwitchNS int64
}

// DefaultConfig models a scaled-down six-core Ryzen-3600X-class part.
func DefaultConfig() Config {
	return Config{
		Cores:          6,
		L1TLB:          tlb.DefaultL1,
		L2TLB:          tlb.DefaultL2,
		L1D:            cache.DefaultL1,
		L2:             cache.DefaultL2,
		LLC:            cache.DefaultLLC,
		PrefetchDegree: 2,
		CtxSwitchNS:    10_000, // 10 us virtual ≙ 10 ms real at 1000x compression
	}
}

// Machine is the whole simulated system: cores, shared LLC, physical
// memory, and per-process page tables.
type Machine struct {
	Phys  *mem.PhysMem
	LLC   *cache.SharedLLC
	cores []*Core

	softDiv int64

	tables map[int]*pagetable.Table
	// asids numbers PIDs in order of first sight. The number is the
	// PID's address-space id, which tags its TLB entries, and modulo
	// the core count it is the PID's core.
	asids map[int]uint32
	procs []proc // PID-indexed copy of asids and tables for Execute

	fault     FaultHandler
	hugeHint  HugeHint
	poison    PoisonHandler
	hintFault HintFaultHandler
	latAdjust func(coreID int, tier mem.TierID, base int64) int64
	observers []RetireObserver

	// MinorFaults counts demand (first-touch) page faults.
	MinorFaults uint64
	// HugeFaults counts THP-backed demand faults.
	HugeFaults uint64
	// PoisonFaults counts BadgerTrap protection faults taken.
	PoisonFaults uint64
	// HintFaults counts AutoNUMA PROT_NONE faults taken.
	HintFaults uint64
}

// NewMachine builds the system. tiers describes physical memory.
func NewMachine(cfg Config, tiers []mem.TierSpec) (*Machine, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("cpu: core count %d must be positive", cfg.Cores)
	}
	// Check the cap before NewPhysMem allocates a descriptor per frame.
	limit, total := maxFrames(cfg.PrefetchDegree), 0
	for _, s := range tiers {
		if s.Frames > 0 {
			total += s.Frames
		}
		if total > limit {
			return nil, fmt.Errorf("cpu: tiers hold more than %d frames, the most whose cache lines fit 32-bit cache tags at prefetch degree %d", limit, cfg.PrefetchDegree)
		}
	}
	phys, err := mem.NewPhysMem(tiers)
	if err != nil {
		return nil, err
	}
	llc, err := cache.NewSharedLLC(cfg.LLC)
	if err != nil {
		return nil, err
	}
	softDiv := cfg.SoftCostDiv
	if softDiv < 1 {
		softDiv = 1
	}
	m := &Machine{
		Phys:    phys,
		LLC:     llc,
		tables:  make(map[int]*pagetable.Table),
		asids:   make(map[int]uint32),
		softDiv: softDiv,
	}
	m.fault = m.defaultFault
	for i := 0; i < cfg.Cores; i++ {
		var pf *cache.Prefetcher
		if cfg.PrefetchDegree > 0 {
			pf = cache.NewPrefetcher(1024, cfg.PrefetchDegree)
		}
		hier, err := cache.NewHierarchy(cfg.L1D, cfg.L2, llc, pf)
		if err != nil {
			return nil, err
		}
		t, err := tlb.New(cfg.L1TLB, cfg.L2TLB)
		if err != nil {
			return nil, err
		}
		core := &Core{
			ID:        i,
			TLB:       t,
			Cache:     hier,
			machine:   m,
			ctxPeriod: cfg.CtxSwitchNS,
		}
		if cfg.CtxSwitchNS > 0 {
			// Stagger switches across cores so they do not align.
			core.nextSwitch = cfg.CtxSwitchNS + int64(i)*cfg.CtxSwitchNS/int64(cfg.Cores)
		}
		m.cores = append(m.cores, core)
	}
	return m, nil
}

// maxFrames is the most physical frames a machine may have: every
// line a demand access or a prefetch names must fit a cache tag
// (cache.MaxLine). A stride prefetch of degree d names lines up to d
// strides past a demand line, and a stride spans at most the highest
// demand line, so the highest nameable line is (d+1) times the highest
// demand line. Without a prefetcher the cap is 2^26-1 frames, just
// under 256 GiB; at the default degree 2 it is 22,369,621 (85 GiB).
func maxFrames(prefetchDegree int) int {
	reach := uint64(1)
	if prefetchDegree > 0 {
		reach += uint64(prefetchDegree)
	}
	lines := cache.MaxLine/reach + 1
	return int(lines / (mem.PageSize / cache.LineSize))
}

// Cores returns the machine's cores.
func (m *Machine) Cores() []*Core { return m.cores }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// SoftCost compresses a wall-clock software cost into scaled virtual
// time (minimum 1 ns so no cost fully vanishes).
func (m *Machine) SoftCost(ns int64) int64 {
	scaled := ns / m.softDiv
	if scaled < 1 && ns > 0 {
		scaled = 1
	}
	return scaled
}

// Now returns machine-wide virtual time: the most advanced core clock
// (cores execute in parallel; the slowest path defines elapsed time,
// and the round-robin driver keeps clocks within one access of each
// other).
func (m *Machine) Now() int64 {
	var max int64
	for _, c := range m.cores {
		if c.clock > max {
			max = c.clock
		}
	}
	return max
}

// SetFaultHandler overrides demand-fault placement (nil restores the
// default first-touch handler).
func (m *Machine) SetFaultHandler(h FaultHandler) {
	if h == nil {
		m.fault = m.defaultFault
		return
	}
	m.fault = h
}

// SetPoisonHandler installs the BadgerTrap protection-fault handler.
func (m *Machine) SetPoisonHandler(h PoisonHandler) { m.poison = h }

// SetHugeHint installs the THP-region predicate.
func (m *Machine) SetHugeHint(h HugeHint) { m.hugeHint = h }

// SetHintFaultHandler installs the AutoNUMA hint-fault handler.
func (m *Machine) SetHintFaultHandler(h HintFaultHandler) { m.hintFault = h }

// SetLatencyAdjuster installs a per-access memory-latency hook: it
// receives the executing core, the tier serving the access, and the
// tier's base latency, and returns the adjusted value. The numa
// package uses it to charge remote-socket DRAM accesses their
// interconnect premium.
func (m *Machine) SetLatencyAdjuster(f func(coreID int, tier mem.TierID, base int64) int64) {
	m.latAdjust = f
}

// AddObserver attaches a retirement observer (e.g. an IBS engine).
func (m *Machine) AddObserver(o RetireObserver) {
	m.observers = append(m.observers, o)
}

// Table returns (creating on demand) the page table of a process.
func (m *Machine) Table(pid int) *pagetable.Table {
	t, ok := m.tables[pid]
	if !ok {
		t = pagetable.New(pid)
		m.tables[pid] = t
	}
	return t
}

// Tables returns all process page tables, keyed by PID.
func (m *Machine) Tables() map[int]*pagetable.Table { return m.tables }

// CoreFor returns the core that executes a PID's references,
// assigning one round-robin on first sight.
func (m *Machine) CoreFor(pid int) *Core {
	return m.cores[int(m.asid(pid))%len(m.cores)]
}

// asid returns a PID's address-space id, numbering PIDs in order of
// first sight.
func (m *Machine) asid(pid int) uint32 {
	id, ok := m.asids[pid]
	if !ok {
		id = uint32(len(m.asids))
		m.asids[pid] = id
	}
	return id
}

// defaultFault implements first-come-first-allocate: fast tier first,
// spilling to slower tiers when full.
func (m *Machine) defaultFault(pid int, vpn mem.VPN, write bool) (mem.PFN, error) {
	return m.Phys.Alloc(mem.FastTier, pid, vpn)
}

// FlushAllTLBs invalidates every core's TLB and returns the IPI cost a
// caller should charge (one IPI per remote core). It models a full
// shootdown as used by the page mover at epoch horizons and by the
// A-bit driver when its optional shootdown mode is on.
func (m *Machine) FlushAllTLBs() int64 {
	for _, c := range m.cores {
		c.TLB.FlushAll()
	}
	return m.SoftCost(int64(len(m.cores)-1) * LatIPI)
}

// FlushPage invalidates a process's translation of vpn on every core
// (page-granular shootdown) and returns the IPI cost. Other processes'
// translations of the same vpn stay.
func (m *Machine) FlushPage(pid int, vpn mem.VPN) int64 {
	if id, ok := m.asids[pid]; ok {
		for _, c := range m.cores {
			c.TLB.FlushPage(tlb.Key(id, vpn))
		}
	}
	return m.SoftCost(int64(len(m.cores)-1) * LatIPI)
}

// Execute runs one memory reference to completion on the core that
// owns its PID and returns the outcome. The returned pointer is reused
// by the next Execute call on the same core.
func (m *Machine) Execute(r trace.Ref) (*trace.Outcome, error) {
	if uint(r.PID) < uint(len(m.procs)) {
		if p := m.procs[r.PID]; p.core != nil {
			return p.core.execute(r, p.table, p.asid)
		}
	}
	id := m.asid(r.PID)
	p := proc{core: m.cores[int(id)%len(m.cores)], table: m.Table(r.PID), asid: id}
	if r.PID >= 0 && r.PID < maxDensePID {
		if r.PID >= len(m.procs) {
			m.procs = append(m.procs, make([]proc, r.PID+1-len(m.procs))...)
		}
		m.procs[r.PID] = p
	}
	return p.core.execute(r, p.table, p.asid)
}

// proc is a PID's execution slot: the core that runs its references,
// its page table and its address-space id.
type proc struct {
	core  *Core
	table *pagetable.Table
	asid  uint32
}

// maxDensePID bounds the PID-indexed slots. A negative or larger PID,
// which a recorded trace may carry, is looked up in the maps each time.
const maxDensePID = 1 << 16

// execute performs translation, cache access, accounting, and
// observer notification for one reference of the process whose page
// table is table and whose address-space id is asid.
func (c *Core) execute(r trace.Ref, table *pagetable.Table, asid uint32) (*trace.Outcome, error) {
	m := c.machine
	o := &c.outcome
	// Zero in place, then set: a composite literal would be built in a
	// temporary and copied over the outcome on every reference.
	*o = trace.Outcome{}
	o.Ref = r
	o.CPU = c.ID
	isStore := r.Kind == trace.Store
	lat := int64(LatBaseOp)

	// Periodic context switch: CR3 reload flushes this core's TLB,
	// eventually re-arming A bits that the scanner cleared without a
	// shootdown.
	if c.nextSwitch > 0 && c.clock >= c.nextSwitch {
		for c.nextSwitch <= c.clock {
			c.nextSwitch += c.ctxPeriod
		}
		c.TLB.FlushAll()
		c.CtxSwitches++
		lat += m.SoftCost(LatCtxSwitch)
	}

	vpn := mem.VPNOf(r.VAddr)
	if uint64(vpn)>>pagetable.VPNBits != 0 {
		return nil, fmt.Errorf("cpu: pid %d vaddr %#x lies beyond the %d-bit virtual address space", r.PID, r.VAddr, pagetable.VPNBits+mem.PageShift)
	}
	key := tlb.Key(asid, vpn)

	var pfn mem.PFN
	entry, tlbLevel := c.TLB.Lookup(key)
	if tlbLevel != tlb.HitNone {
		if tlbLevel == tlb.HitL2 {
			lat += LatL2TLB
		}
		pfn = entry.PFN
		if isStore && !entry.Dirty {
			// x86 semantics: a store through a clean translation
			// forces a walk to set the PTE D bit even on a TLB hit
			// (the PTW sets A as well).
			lat += LatPageWalk
			pte, huge := table.Resolve(vpn)
			if pte == nil {
				return nil, fmt.Errorf("cpu: TLB maps unmapped page pid=%d vpn=%#x", r.PID, uint64(vpn))
			}
			pfn = leafFrame(pte, huge, vpn)
			extra := c.walkFixups(o, pte, pfn, true)
			lat += extra
			c.TLB.MarkDirty(key)
			o.PageWalk = true
		}
	} else {
		// Full TLB miss: hardware page walk.
		o.TLBMiss = true
		o.PageWalk = true
		c.PMU.Add(pmu.EvSTLBMiss, 1)
		lat += LatPageWalk

		pte, huge := table.Resolve(vpn)
		if pte == nil {
			// Demand fault: first touch of the page.
			faultLat, err := m.handleFault(table, r.PID, vpn, isStore)
			if err != nil {
				return nil, fmt.Errorf("cpu: pid %d fault at vpn %#x: %w", r.PID, uint64(vpn), err)
			}
			lat += faultLat
			pte, huge = table.Resolve(vpn)
			if pte == nil {
				return nil, fmt.Errorf("cpu: pid %d fault at vpn %#x left page unmapped", r.PID, uint64(vpn))
			}
		}
		pfn = leafFrame(pte, huge, vpn)
		extra := c.walkFixups(o, pte, pfn, isStore)
		lat += extra
		// Hardware TLBs fracture huge translations into base-page
		// entries when the huge arrays are full; we model base-page
		// entries throughout — the PMD A/D bits are what matter.
		c.TLB.Insert(tlb.Entry{
			VPN:      key,
			PFN:      pfn,
			Writable: pte.Writable(),
			Dirty:    pte.Dirty(),
		})
	}

	o.PAddr = pfn.PAddrOf() | (r.VAddr & mem.PageMask)

	// Cache hierarchy access with the physical address.
	res := c.Cache.Access(o.PAddr, r.IP, isStore)
	o.PrefetchHit = res.PrefetchHit
	switch res.Level {
	case cache.HitL1:
		lat += LatL1
		o.Source = trace.SrcL1
	case cache.HitL2:
		lat += LatL2
		o.Source = trace.SrcL2
	case cache.HitLLC:
		lat += LatLLC
		o.Source = trace.SrcLLC
	case cache.MissAll:
		tier := m.Phys.TierOf(pfn)
		spec := m.Phys.TierSpecOf(tier)
		memLat := spec.ReadLatency
		if isStore {
			memLat = spec.WriteLatency
		}
		if m.latAdjust != nil {
			memLat = m.latAdjust(c.ID, tier, memLat)
		}
		lat += memLat
		if tier == mem.FastTier {
			o.Source = trace.SrcTier1
		} else {
			o.Source = trace.SrcTier2
		}
		c.PMU.Add(pmu.EvLLCMiss, 1)
		// Ground truth for hitrate/Oracle: a demand access served
		// from memory.
		if pd := m.Phys.Page(pfn); pd.Epoch.True != ^uint32(0) {
			pd.Epoch.True++
		}
	}

	o.Latency = lat
	c.clock += lat
	o.Now = c.clock

	// Retirement observers (IBS/PEBS engines) may add overhead.
	for _, obs := range m.observers {
		if extra := obs.ObserveRetire(o, OpsPerRef); extra > 0 {
			c.clock += extra
			o.Now = c.clock
		}
	}
	return o, nil
}

// leafFrame computes the frame a leaf PTE maps for vpn, handling huge
// leaves.
func leafFrame(pte *pagetable.PTE, huge bool, vpn mem.VPN) mem.PFN {
	if huge {
		return pte.PFN() + mem.PFN(uint64(vpn)%mem.HugePages)
	}
	return pte.PFN()
}

// handleFault services a demand fault: THP-backed regions get a 2 MiB
// allocation and mapping (falling back to a base page when no
// contiguous run exists), everything else a base page via the fault
// handler.
func (m *Machine) handleFault(table *pagetable.Table, pid int, vpn mem.VPN, write bool) (int64, error) {
	base := vpn - mem.VPN(uint64(vpn)%mem.HugePages)
	if m.hugeHint != nil && m.hugeHint(pid, vpn) && table.CanMapHuge(base) {
		pfnBase, err := m.Phys.AllocHuge(mem.FastTier, pid, base)
		if err == nil {
			table.MapHuge(base, pfnBase, true)
			m.MinorFaults++
			m.HugeFaults++
			return m.SoftCost(LatHugeFault), nil
		}
		// THP falls back to a base page on any huge-allocation
		// failure (fragmentation or memory pressure); a genuine OOM
		// will surface from the base-page allocator below.
	}
	newPFN, err := m.fault(pid, vpn, write)
	if err != nil {
		return 0, err
	}
	table.Map(vpn, newPFN, true)
	m.MinorFaults++
	return m.SoftCost(LatMinorFault), nil
}

// walkFixups applies the PTW's architectural side effects for a walk
// that reached a present leaf PTE: poison check, A-bit set, D-bit set
// on stores. pfn is the exact frame the access targets, which the
// fault handlers receive. It returns extra latency from poison
// handling.
func (c *Core) walkFixups(o *trace.Outcome, pte *pagetable.PTE, pfn mem.PFN, setDirty bool) int64 {
	m := c.machine
	var extra int64
	if pte.ProtNone() {
		m.HintFaults++
		if m.hintFault != nil {
			extra += m.hintFault(o, pfn)
		}
		*pte &^= pagetable.BitProtNone
	}
	if pte.Poisoned() {
		m.PoisonFaults++
		if m.poison != nil {
			add, unpoison := m.poison(o, pfn)
			extra += add
			if unpoison {
				*pte &^= pagetable.BitPoison
			}
		}
	}
	// The hardware walker sets A on every walk that installs a
	// translation, and D when the access is a store.
	*pte |= pagetable.BitAccessed
	if setDirty {
		if !pte.Dirty() {
			// A 0->1 D-bit transition: any shadow copy of the page
			// goes stale.
			m.Phys.NoteWrite(pfn)
		}
		*pte |= pagetable.BitDirty
	}
	return extra
}
