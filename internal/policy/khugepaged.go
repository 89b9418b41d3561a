package policy

import (
	"tieredmem/internal/cpu"
	"tieredmem/internal/mem"
	"tieredmem/internal/pagetable"
)

// Collapser is the simulator's khugepaged: page migration splits THP
// mappings into base pages (see Mover.migrate), and over time a
// tiered system would degrade to 4 KiB translations everywhere —
// inflating TLB pressure and A-bit walk costs. Linux's khugepaged
// daemon walks address spaces looking for 2 MiB-aligned ranges that
// are fully mapped with base pages, copies them into a freshly
// allocated huge frame, and installs a PMD mapping. The collapser
// does the same, restricted to chunks that are tier-homogeneous (a
// chunk straddling tiers is exactly the one the mover just split and
// should stay split).
type Collapser struct {
	machine *cpu.Machine
	// CostPerPageNS is the per-subpage copy cost charged for a
	// collapse (one 2 MiB collapse copies 512 pages).
	CostPerPageNS int64
	// CollapserCore pays the costs.
	CollapserCore int

	// Stats.
	Collapses  uint64 // huge mappings re-established
	Scanned    uint64 // candidate chunks examined
	OverheadNS int64

	charged int64 // portion of OverheadNS already charged
	// cands is Collapse's candidate scratch, truncated per call.
	cands []chunk
}

// NewCollapser builds a collapser with a 2 us per-subpage copy cost
// (khugepaged copies through the kernel map).
func NewCollapser(m *cpu.Machine) *Collapser {
	return &Collapser{machine: m, CostPerPageNS: 2000}
}

// chunk is a collapse candidate.
type chunk struct {
	pid  int
	base mem.VPN
	tier mem.TierID
}

// Collapse scans the given processes for collapsible chunks and
// rebuilds up to maxCollapses huge mappings (khugepaged is
// rate-limited the same way). It returns how many chunks were
// collapsed.
func (c *Collapser) Collapse(pids []int, maxCollapses int) int {
	if maxCollapses <= 0 {
		return 0
	}
	c.cands = c.cands[:0]
	for _, pid := range pids {
		table, ok := c.machine.Tables()[pid]
		if !ok {
			continue
		}
		c.cands = c.findCandidates(c.cands, pid, table)
	}
	done := 0
	for _, cand := range c.cands {
		if done >= maxCollapses {
			break
		}
		if c.collapseOne(cand) {
			done++
		}
	}
	if c.OverheadNS > 0 {
		c.machine.Core(c.CollapserCore).AdvanceClock(c.chargeDelta())
	}
	return done
}

// findCandidates appends to out the 2 MiB-aligned, fully base-mapped,
// tier-homogeneous chunks of one process. WalkRange visits in ascending
// VPN order, so a chunk is complete exactly when 512 consecutive pages
// arrive from its aligned base in one tier.
func (c *Collapser) findCandidates(out []chunk, pid int, table *pagetable.Table) []chunk {
	phys := c.machine.Phys
	found := len(out)
	var cur chunk
	count := 0
	table.WalkRange(func(vpn mem.VPN, pte *pagetable.PTE, huge bool) bool {
		if huge {
			count = 0
			return true
		}
		tier := phys.TierOf(pte.PFN())
		switch {
		case uint64(vpn)%mem.HugePages == 0:
			cur = chunk{pid: pid, base: vpn, tier: tier}
			count = 1
		case count > 0 && vpn == cur.base+mem.VPN(count) && tier == cur.tier:
			count++
		default:
			count = 0
		}
		if count == mem.HugePages {
			out = append(out, cur)
			count = 0
		}
		return true
	})
	c.Scanned += uint64(len(out) - found)
	return out
}

// collapseOne copies a chunk into a fresh contiguous huge frame and
// installs the PMD mapping.
func (c *Collapser) collapseOne(cand chunk) bool {
	phys := c.machine.Phys
	table, ok := c.machine.Tables()[cand.pid]
	if !ok {
		return false
	}
	// Re-validate under current state.
	for i := 0; i < mem.HugePages; i++ {
		pte, huge := table.Resolve(cand.base + mem.VPN(i))
		if pte == nil || huge || phys.TierOf(pte.PFN()) != cand.tier {
			return false
		}
	}
	newBase, err := phys.AllocHuge(cand.tier, cand.pid, cand.base)
	if err != nil {
		return false
	}
	// Copy state per subpage, free old frames, then remap as huge.
	var oldPFNs [mem.HugePages]mem.PFN
	for i := 0; i < mem.HugePages; i++ {
		vpn := cand.base + mem.VPN(i)
		old, _ := table.Frame(vpn)
		oldPFNs[i] = old
		phys.CarryProfile(newBase+mem.PFN(i), old)
		table.Unmap(vpn)
	}
	table.MapHuge(cand.base, newBase, true)
	for _, old := range oldPFNs {
		phys.Free(old)
	}
	c.OverheadNS += c.machine.SoftCost(int64(mem.HugePages) * c.CostPerPageNS)
	c.OverheadNS += c.machine.FlushAllTLBs()
	c.Collapses++
	return true
}

// chargeDelta charges newly accumulated overhead exactly once.
func (c *Collapser) chargeDelta() int64 {
	d := c.OverheadNS - c.charged
	c.charged = c.OverheadNS
	return d
}
