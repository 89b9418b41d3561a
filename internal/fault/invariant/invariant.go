// Package invariant asserts the cross-layer conservation laws that
// must survive any epoch, faulted or not: physical frames are neither
// lost nor duplicated, every page-table mapping points at exactly one
// allocated frame whose descriptor points back, per-tier accounting
// conserves capacity, and the mover's failure counters partition its
// aggregate. The chaos suite runs a Checker after every epoch under
// fault injection — a fault plane is allowed to make migrations fail,
// never to corrupt placement state.
//
// The checker only reads; it never mutates simulator state, so a
// checked run is byte-identical to an unchecked one.
package invariant

import (
	"fmt"
	"sort"
	"strings"

	"tieredmem/internal/mem"
	"tieredmem/internal/pagetable"
	"tieredmem/internal/policy"
)

// maxViolations bounds one Check's report; past this the epoch is
// thoroughly broken and more lines would not help.
const maxViolations = 8

// Checker verifies epoch invariants. It keeps per-PFN scratch between
// calls (epoch-stamped, so it is never cleared), making the per-epoch
// cost one pass over the mapped pages plus one over the frame arrays.
// Not safe for concurrent use; parallel cells each own one.
type Checker struct {
	stamp uint32
	owner []ownerMark
}

// ownerMark records which mapping claimed a frame during the current
// Check pass; stale stamps mean "unclaimed this pass".
type ownerMark struct {
	stamp uint32
	pid   int
	vpn   mem.VPN
}

// New builds a Checker.
func New() *Checker { return &Checker{} }

// Violation is one broken invariant; Error joins all of them, so a
// single failed epoch reports every law it broke at once.
type Violation struct {
	// Rule names the invariant ("tier-conservation",
	// "duplicate-frame", "dangling-mapping", "descriptor-mismatch",
	// "leaked-frame", "shadow-conservation", "mover-accounting").
	Rule string
	// Detail locates the breakage.
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Error wraps the violations of one failed Check.
type Error struct {
	Violations []Violation
}

func (e *Error) Error() string {
	parts := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		parts[i] = v.String()
	}
	return "invariant: " + strings.Join(parts, "; ")
}

// Check asserts every epoch invariant against the machine's physical
// memory, the page tables, and (when non-nil) the mover's accounting.
// It returns nil when all hold, or an *Error listing up to
// maxViolations breakages. Tables are visited in ascending-PID order
// so the report for a given broken state is deterministic.
func (c *Checker) Check(phys *mem.PhysMem, tables map[int]*pagetable.Table, mv *policy.Mover) error {
	var e Error
	add := func(rule, format string, args ...interface{}) bool {
		if len(e.Violations) < maxViolations {
			e.Violations = append(e.Violations, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
		}
		return len(e.Violations) < maxViolations
	}

	total := phys.TotalFrames()
	if len(c.owner) < total {
		c.owner = make([]ownerMark, total)
		c.stamp = 0
	}
	c.stamp++
	stamp := c.stamp

	// 1. Tier conservation: used + free + shadow == capacity, per tier.
	// Shadow frames are the transactional mover's third allocator
	// state — not free, not mapped — and must still be conserved.
	totalUsed := 0
	for t := 0; t < phys.Tiers(); t++ {
		id := mem.TierID(t)
		used, free, shadow := phys.UsedFrames(id), phys.FreeFrames(id), phys.ShadowFrames(id)
		cap := phys.TierSpecOf(id).Frames
		totalUsed += used
		if used+free+shadow != cap {
			add("tier-conservation", "tier %d (%s): used %d + free %d + shadow %d != capacity %d",
				t, phys.TierSpecOf(id).Name, used, free, shadow, cap)
		}
	}

	// 2. Mapping -> frame: every present leaf resolves to allocated
	// frames whose descriptors point back, and no frame is mapped
	// twice (by one table or across tables).
	pids := make([]int, 0, len(tables))
	for pid := range tables {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	mapped := 0
	for _, pid := range pids {
		table := tables[pid]
		table.WalkRange(func(vpn mem.VPN, pte *pagetable.PTE, huge bool) bool {
			span := 1
			if huge {
				span = mem.HugePages
			}
			base := pte.PFN()
			for i := 0; i < span; i++ {
				pfn, pv := base+mem.PFN(i), vpn+mem.VPN(i)
				if int(pfn) >= total {
					return add("dangling-mapping", "pid %d vpn %#x -> PFN %d beyond physical memory (%d frames)",
						pid, uint64(pv), pfn, total)
				}
				mapped++
				own := &c.owner[pfn]
				if own.stamp == stamp {
					if !add("duplicate-frame", "PFN %d mapped by pid %d vpn %#x and pid %d vpn %#x",
						pfn, own.pid, uint64(own.vpn), pid, uint64(pv)) {
						return false
					}
					continue
				}
				*own = ownerMark{stamp: stamp, pid: pid, vpn: pv}
				if !phys.Allocated(pfn) {
					if !add("dangling-mapping", "pid %d vpn %#x -> PFN %d which is free", pid, uint64(pv), pfn) {
						return false
					}
					continue
				}
				if pd := phys.Page(pfn); int(pd.PID) != pid || pd.VPage != pv {
					if !add("descriptor-mismatch", "PFN %d descriptor says pid=%d vpn=%#x, mapping says pid=%d vpn=%#x",
						pfn, pd.PID, uint64(pd.VPage), pid, uint64(pv)) {
						return false
					}
				}
			}
			return true
		})
	}

	// 3. Frame -> mapping: an allocated frame no mapping claimed this
	// pass leaked (lost page). Counting both directions plus the
	// duplicate check above makes mapping <-> allocated-frame a
	// bijection.
	if mapped != totalUsed && len(e.Violations) < maxViolations {
		phys.ForEachAllocated(func(pfn mem.PFN, pd *mem.PageDescriptor) {
			if c.owner[pfn].stamp != stamp {
				add("leaked-frame", "PFN %d allocated (pid %d vpn %#x, tier %d) but mapped by no page table",
					pfn, pd.PID, uint64(pd.VPage), phys.TierOf(pfn))
			}
		})
	}

	// 4. Shadow conservation: shadow frames and shadowed primaries form
	// a bijection — every shadow's link names an allocated primary in a
	// faster tier that links back and agrees on page identity — and the
	// per-tier shadow counters match the flags. The pass reads every
	// frame's flags byte, not a span bounded by those counters, so a
	// counter drifting to zero cannot hide flagged frames from the
	// check; only shadow frames cost a descriptor read.
	shadowSeen := make(map[mem.TierID]int)
	for pfn := mem.PFN(0); int(pfn) < total; pfn++ {
		if phys.Flags(pfn)&mem.FlagShadow == 0 {
			continue
		}
		spd := phys.Page(pfn)
		tier := phys.TierOf(pfn)
		shadowSeen[tier]++
		if c.owner[pfn].stamp == stamp {
			add("shadow-conservation", "shadow PFN %d is mapped by pid %d vpn %#x",
				pfn, c.owner[pfn].pid, uint64(c.owner[pfn].vpn))
			continue
		}
		link := mem.PFN(spd.ShadowLink)
		primary := phys.Page(link)
		switch {
		case !phys.Allocated(link) || phys.Flags(link)&mem.FlagShadowed == 0:
			add("shadow-conservation", "shadow PFN %d links to PFN %d which is not a shadowed primary",
				pfn, link)
		case mem.PFN(primary.ShadowLink) != pfn:
			add("shadow-conservation", "shadow PFN %d links to PFN %d whose shadow link is PFN %d",
				pfn, link, primary.ShadowLink)
		case primary.PID != spd.PID || primary.VPage != spd.VPage:
			add("shadow-conservation", "shadow PFN %d (pid %d vpn %#x) disagrees with primary PFN %d (pid %d vpn %#x)",
				pfn, spd.PID, uint64(spd.VPage), link, primary.PID, uint64(primary.VPage))
		case phys.TierOf(link) >= tier:
			add("shadow-conservation", "shadow PFN %d in tier %d is not slower than its primary PFN %d in tier %d",
				pfn, tier, link, phys.TierOf(link))
		}
	}
	phys.ForEachAllocated(func(pfn mem.PFN, pd *mem.PageDescriptor) {
		if phys.Flags(pfn)&mem.FlagShadowed != 0 && phys.Flags(mem.PFN(pd.ShadowLink))&mem.FlagShadow == 0 {
			add("shadow-conservation", "shadowed primary PFN %d links to PFN %d which holds no shadow",
				pfn, pd.ShadowLink)
		}
	})
	for t := 0; t < phys.Tiers(); t++ {
		id := mem.TierID(t)
		if got := phys.ShadowFrames(id); got != shadowSeen[id] {
			add("shadow-conservation", "tier %d shadow counter says %d frames, flags say %d",
				t, got, shadowSeen[id])
		}
	}

	// 5. Mover accounting: the per-reason counters partition the
	// aggregate, transaction outcomes partition transaction starts,
	// retry outcomes never exceed attempts, and the queue respects its
	// bound.
	if mv != nil {
		if sum := mv.FailedCapacity + mv.FailedPinned + mv.FailedVanished + mv.FailedSplit + mv.AbortedDirty; sum != mv.Failed {
			add("mover-accounting", "Failed %d != capacity %d + pinned %d + vanished %d + split %d + aborted %d",
				mv.Failed, mv.FailedCapacity, mv.FailedPinned, mv.FailedVanished, mv.FailedSplit, mv.AbortedDirty)
		}
		if sum := mv.TxCommitted + mv.AbortedDirty + mv.TxRemapFailed; sum != mv.TxStarted {
			add("mover-accounting", "TxStarted %d != committed %d + aborted-dirty %d + remap-failed %d",
				mv.TxStarted, mv.TxCommitted, mv.AbortedDirty, mv.TxRemapFailed)
		}
		if mv.RetrySucceeded > mv.Retried {
			add("mover-accounting", "RetrySucceeded %d > Retried %d", mv.RetrySucceeded, mv.Retried)
		}
		if mv.RetryQueueLen() > mv.RetryQueueCap {
			add("mover-accounting", "retry queue length %d exceeds cap %d", mv.RetryQueueLen(), mv.RetryQueueCap)
		}
	}

	if len(e.Violations) > 0 {
		return &e
	}
	return nil
}
