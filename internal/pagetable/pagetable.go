// Package pagetable implements x86-64-style 4-level radix page tables
// with Present/Write/Accessed/Dirty bits, 2 MiB huge-page (PS) leaf
// entries at the PMD level, and the reserved "poison" bit (bit 51)
// that BadgerTrap-style tooling uses to force protection faults on
// chosen pages. A software page-table walker with hardware semantics
// lives in the cpu package; the A-bit scan driver (abit package) uses
// this package's WalkRange visitor, the analog of Linux's mm_walk.
//
// Huge pages matter to the paper's evaluation: THP-backed HPC heaps
// expose one PMD-level A bit per 2 MiB, so A-bit profiling sees them
// at 512x coarser granularity than IBS/PEBS's exact 4 KiB physical
// addresses — the mechanism behind Table IV's tiny A-bit page counts
// for GUPS/XSBench and Fig. 6's TMP advantage.
package pagetable

import (
	"fmt"

	"tieredmem/internal/mem"
)

// PTE is a page-table entry in x86-64 layout.
type PTE uint64

// PTE bit assignments (matching x86-64).
const (
	BitPresent  PTE = 1 << 0
	BitWrite    PTE = 1 << 1
	BitUser     PTE = 1 << 2
	BitAccessed PTE = 1 << 5
	BitDirty    PTE = 1 << 6
	// BitHuge is the PS bit: at the PMD level it marks a 2 MiB leaf.
	BitHuge PTE = 1 << 7
	// BitPoison is reserved bit 51: setting a reserved bit in a
	// present PTE makes hardware raise a protection fault on access,
	// the BadgerTrap trick (§II-B).
	BitPoison PTE = 1 << 51
	// BitProtNone marks an AutoNUMA hint PTE: Linux's NUMA balancing
	// periodically makes mappings inaccessible (PROT_NONE) so the
	// next access faults and reveals which task touched the page.
	// Modeled as a reserved bit so present-ness bookkeeping stays
	// simple; the walker treats it as access-triggering like poison.
	BitProtNone PTE = 1 << 52

	pfnShift = 12
	pfnMask  = (PTE(1)<<39 - 1) << pfnShift // bits 12..50
)

// Present reports whether the entry maps a frame.
func (p PTE) Present() bool { return p&BitPresent != 0 }

// Writable reports whether stores are permitted.
func (p PTE) Writable() bool { return p&BitWrite != 0 }

// Accessed reports the A bit.
func (p PTE) Accessed() bool { return p&BitAccessed != 0 }

// Dirty reports the D bit.
func (p PTE) Dirty() bool { return p&BitDirty != 0 }

// Huge reports the PS bit.
func (p PTE) Huge() bool { return p&BitHuge != 0 }

// Poisoned reports the BadgerTrap reserved bit.
func (p PTE) Poisoned() bool { return p&BitPoison != 0 }

// ProtNone reports the AutoNUMA hint bit.
func (p PTE) ProtNone() bool { return p&BitProtNone != 0 }

// PFN extracts the mapped frame number (the base frame for huge
// leaves).
func (p PTE) PFN() mem.PFN { return mem.PFN((p & pfnMask) >> pfnShift) }

// NewPTE builds a present entry for a frame.
func NewPTE(pfn mem.PFN, writable bool) PTE {
	p := BitPresent | BitUser | (PTE(pfn)<<pfnShift)&pfnMask
	if writable {
		p |= BitWrite
	}
	return p
}

// Four radix levels of 9 bits each cover VPN bits [0,36).
const (
	levels    = 4
	radixBits = 9
	radixSize = 1 << radixBits
	radixMask = radixSize - 1
	// VPNBits is the width of the virtual page numbers a table maps.
	VPNBits = levels * radixBits
	// pmdLevel is the level whose entries may be huge leaves.
	pmdLevel = levels - 2
)

// node is one 512-entry table page. Leaf nodes use ptes; interior
// nodes use children — except PMD nodes, where a slot holds either a
// child PT pointer or a huge-leaf PTE.
type node struct {
	ptes     [radixSize]PTE
	children [radixSize]*node
	live     int // populated slots, for bookkeeping
}

// Table is one process's page table.
type Table struct {
	pid        int
	root       *node
	mapped     int // present leaf PTEs (a huge leaf counts once)
	hugeLeaves int
	version    uint64 // bumped on every unmap/remap/split, for staleness checks
	// spare holds up to maxSpareLeaves leaf pages Unmap pruned, for
	// SplitHuge to reuse: the mover splits what khugepaged collapsed,
	// and each collapse prunes a leaf, so the cycle recycles table pages
	// instead of allocating one per split.
	spare []*node
}

// maxSpareLeaves bounds Table.spare; khugepaged collapses two chunks
// per epoch.
const maxSpareLeaves = 4

// New returns an empty table for a process.
func New(pid int) *Table {
	return &Table{pid: pid, root: &node{}}
}

// PID returns the owning process ID.
func (t *Table) PID() int { return t.pid }

// Mapped returns the number of present leaf entries (huge leaves count
// once — this is the quantity an A-bit walk visits and pays for).
func (t *Table) Mapped() int { return t.mapped }

// HugeLeaves returns the number of 2 MiB leaf entries.
func (t *Table) HugeLeaves() int { return t.hugeLeaves }

// MappedPages returns the number of 4 KiB pages covered by present
// leaves.
func (t *Table) MappedPages() int {
	return t.mapped - t.hugeLeaves + t.hugeLeaves*mem.HugePages
}

// Version returns a counter bumped on every unmap, remap or split.
func (t *Table) Version() uint64 { return t.version }

func indexAt(vpn mem.VPN, level int) int {
	// level 0 is the root (top 9 bits), level 3 the leaf.
	shift := uint((levels - 1 - level) * radixBits)
	return int(uint64(vpn)>>shift) & radixMask
}

func checkVPN(vpn mem.VPN) {
	if uint64(vpn)>>VPNBits != 0 {
		panic(fmt.Sprintf("pagetable: VPN %#x exceeds %d-bit space", uint64(vpn), VPNBits))
	}
}

// Map installs a 4 KiB mapping vpn -> pfn, replacing any existing 4 KiB
// mapping. Mapping inside an existing huge leaf panics — callers must
// split first.
func (t *Table) Map(vpn mem.VPN, pfn mem.PFN, writable bool) {
	checkVPN(vpn)
	n := t.root
	for lvl := 0; lvl < levels-1; lvl++ {
		idx := indexAt(vpn, lvl)
		if lvl == pmdLevel && n.ptes[idx].Present() {
			panic(fmt.Sprintf("pagetable: 4 KiB map inside huge leaf at vpn %#x", uint64(vpn)))
		}
		child := n.children[idx]
		if child == nil {
			child = &node{}
			n.children[idx] = child
			n.live++
		}
		n = child
	}
	idx := indexAt(vpn, levels-1)
	if !n.ptes[idx].Present() {
		t.mapped++
		n.live++
	}
	n.ptes[idx] = NewPTE(pfn, writable)
}

// MapHuge installs a 2 MiB leaf at the PMD level. vpnBase and pfnBase
// must be 512-page aligned, and the slot must be empty.
func (t *Table) MapHuge(vpnBase mem.VPN, pfnBase mem.PFN, writable bool) {
	checkVPN(vpnBase)
	if uint64(vpnBase)%mem.HugePages != 0 {
		panic(fmt.Sprintf("pagetable: huge vpn base %#x not aligned", uint64(vpnBase)))
	}
	if uint64(pfnBase)%mem.HugePages != 0 {
		panic(fmt.Sprintf("pagetable: huge pfn base %#x not aligned", uint64(pfnBase)))
	}
	n := t.root
	for lvl := 0; lvl < pmdLevel; lvl++ {
		idx := indexAt(vpnBase, lvl)
		child := n.children[idx]
		if child == nil {
			child = &node{}
			n.children[idx] = child
			n.live++
		}
		n = child
	}
	idx := indexAt(vpnBase, pmdLevel)
	if n.children[idx] != nil || n.ptes[idx].Present() {
		panic(fmt.Sprintf("pagetable: huge map collides at vpn %#x", uint64(vpnBase)))
	}
	n.ptes[idx] = NewPTE(pfnBase, writable) | BitHuge
	n.live++
	t.mapped++
	t.hugeLeaves++
}

// CanMapHuge reports whether the PMD slot covering vpnBase is empty —
// no huge leaf and no base-page table below it (THP can only collapse
// a chunk none of whose pages are already mapped, short of a
// khugepaged-style collapse which we do not model).
func (t *Table) CanMapHuge(vpnBase mem.VPN) bool {
	checkVPN(vpnBase)
	n := t.root
	for lvl := 0; lvl < pmdLevel; lvl++ {
		n = n.children[indexAt(vpnBase, lvl)]
		if n == nil {
			return true
		}
	}
	idx := indexAt(vpnBase, pmdLevel)
	return n.children[idx] == nil && !n.ptes[idx].Present()
}

// pmdSlot returns the PMD node and index covering vpn, or nil when no
// path exists.
func (t *Table) pmdSlot(vpn mem.VPN) (*node, int) {
	n := t.root
	for lvl := 0; lvl < pmdLevel; lvl++ {
		n = n.children[indexAt(vpn, lvl)]
		if n == nil {
			return nil, 0
		}
	}
	return n, indexAt(vpn, pmdLevel)
}

// Resolve returns a pointer to the live leaf PTE covering vpn and
// whether it is a huge leaf; nil when unmapped. The cpu package's
// walker uses the pointer to set A/D bits exactly as hardware does;
// the abit driver test-and-clears through WalkRange instead.
func (t *Table) Resolve(vpn mem.VPN) (*PTE, bool) {
	checkVPN(vpn)
	pmd, idx := t.pmdSlot(vpn)
	if pmd == nil {
		return nil, false
	}
	if pmd.ptes[idx].Present() {
		return &pmd.ptes[idx], true
	}
	leaf := pmd.children[idx]
	if leaf == nil {
		return nil, false
	}
	li := indexAt(vpn, levels-1)
	if !leaf.ptes[li].Present() {
		return nil, false
	}
	return &leaf.ptes[li], false
}

// PTEPtr returns the live 4 KiB PTE for vpn, or nil when the page is
// unmapped or covered by a huge leaf.
func (t *Table) PTEPtr(vpn mem.VPN) *PTE {
	p, huge := t.Resolve(vpn)
	if p == nil || huge {
		return nil
	}
	return p
}

// Lookup returns the leaf PTE value covering vpn and whether it is
// huge.
func (t *Table) Lookup(vpn mem.VPN) (PTE, bool, bool) {
	p, huge := t.Resolve(vpn)
	if p == nil {
		return 0, false, false
	}
	return *p, huge, true
}

// Frame translates vpn to its physical frame, handling huge leaves.
func (t *Table) Frame(vpn mem.VPN) (mem.PFN, bool) {
	p, huge := t.Resolve(vpn)
	if p == nil {
		return 0, false
	}
	if huge {
		return p.PFN() + mem.PFN(uint64(vpn)%mem.HugePages), true
	}
	return p.PFN(), true
}

// Unmap removes the 4 KiB mapping for vpn, reporting whether one
// existed. Huge leaves must be split or removed via UnmapHuge. A leaf
// page table left empty is pruned from its PMD slot so the slot can
// later take a huge mapping (khugepaged collapse relies on this).
func (t *Table) Unmap(vpn mem.VPN) bool {
	p, huge := t.Resolve(vpn)
	if p == nil || huge {
		return false
	}
	*p = 0
	pmd, idx := t.pmdSlot(vpn)
	leaf := pmd.children[idx]
	leaf.live--
	if leaf.live == 0 {
		pmd.children[idx] = nil
		pmd.live--
		if len(t.spare) < maxSpareLeaves {
			t.spare = append(t.spare, leaf)
		}
	}
	t.mapped--
	t.version++
	return true
}

// UnmapHuge removes a 2 MiB leaf, reporting whether one existed at
// vpnBase.
func (t *Table) UnmapHuge(vpnBase mem.VPN) bool {
	pmd, idx := t.pmdSlot(vpnBase)
	if pmd == nil || !pmd.ptes[idx].Present() {
		return false
	}
	pmd.ptes[idx] = 0
	pmd.live--
	t.mapped--
	t.hugeLeaves--
	t.version++
	return true
}

// SplitHuge replaces the huge leaf covering vpn with 512 base PTEs
// mapping the same consecutive frames, propagating the A/D/poison bits
// to every child — Linux's THP split, which the page mover performs
// before migrating a 4 KiB page out of a huge mapping. It reports
// whether a huge leaf was present.
func (t *Table) SplitHuge(vpn mem.VPN) bool {
	pmd, idx := t.pmdSlot(vpn)
	if pmd == nil || !pmd.ptes[idx].Present() {
		return false
	}
	hpte := pmd.ptes[idx]
	// Every slot of the leaf is written below, so a spare needs no
	// clearing.
	var leaf *node
	if n := len(t.spare); n > 0 {
		leaf, t.spare = t.spare[n-1], t.spare[:n-1]
	} else {
		leaf = &node{}
	}
	inherit := hpte & (BitAccessed | BitDirty | BitPoison | BitWrite)
	base := hpte.PFN()
	for i := 0; i < radixSize; i++ {
		leaf.ptes[i] = NewPTE(base+mem.PFN(i), false) | inherit
	}
	leaf.live = radixSize
	pmd.ptes[idx] = 0
	pmd.children[idx] = leaf
	t.mapped += radixSize - 1
	t.hugeLeaves--
	t.version++
	return true
}

// Remap points an existing 4 KiB mapping at a new frame, preserving
// the Write permission and clearing A/D (a migrated page starts cold).
// The caller is responsible for the TLB shootdown. Remap reports
// whether a 4 KiB mapping existed (huge leaves must be split first).
func (t *Table) Remap(vpn mem.VPN, pfn mem.PFN) bool {
	p := t.PTEPtr(vpn)
	if p == nil {
		return false
	}
	*p = NewPTE(pfn, p.Writable())
	t.version++
	return true
}

// SetPoison sets or clears the BadgerTrap reserved bit on the leaf
// covering vpn (huge or base), reporting whether a mapping existed.
func (t *Table) SetPoison(vpn mem.VPN, poisoned bool) bool {
	p, _ := t.Resolve(vpn)
	if p == nil {
		return false
	}
	if poisoned {
		*p |= BitPoison
	} else {
		*p &^= BitPoison
	}
	return true
}

// SetProtNone sets or clears the AutoNUMA hint bit on the leaf
// covering vpn, reporting whether a mapping existed.
func (t *Table) SetProtNone(vpn mem.VPN, protNone bool) bool {
	p, _ := t.Resolve(vpn)
	if p == nil {
		return false
	}
	if protNone {
		*p |= BitProtNone
	} else {
		*p &^= BitProtNone
	}
	return true
}

// VisitFunc is invoked for each present leaf PTE during WalkRange.
// vpn is the first virtual page the leaf covers (the base VPN for a
// huge leaf); pte points at the live entry so the visitor can
// test-and-clear bits; huge distinguishes 2 MiB leaves. Returning
// false stops the walk early.
type VisitFunc func(vpn mem.VPN, pte *PTE, huge bool) bool

// WalkRange visits every present leaf PTE in ascending VPN order: the
// simulator's mm_walk. It returns the number of leaf PTEs visited,
// which the A-bit driver charges as walk overhead (the paper's
// Table I: A-bit overhead is proportional to the PTEs traversed; a
// huge leaf costs one visit, not 512).
func (t *Table) WalkRange(fn VisitFunc) int {
	visited := 0
	t.walkNode(t.root, 0, 0, fn, &visited)
	return visited
}

func (t *Table) walkNode(n *node, level int, prefix uint64, fn VisitFunc, visited *int) bool {
	if level == levels-1 {
		for i := 0; i < radixSize; i++ {
			if !n.ptes[i].Present() {
				continue
			}
			*visited++
			vpn := mem.VPN(prefix<<radixBits | uint64(i))
			if !fn(vpn, &n.ptes[i], false) {
				return false
			}
		}
		return true
	}
	for i := 0; i < radixSize; i++ {
		if level == pmdLevel && n.ptes[i].Present() {
			*visited++
			vpn := mem.VPN((prefix<<radixBits | uint64(i)) << radixBits)
			if !fn(vpn, &n.ptes[i], true) {
				return false
			}
			continue
		}
		child := n.children[i]
		if child == nil {
			continue
		}
		if !t.walkNode(child, level+1, prefix<<radixBits|uint64(i), fn, visited) {
			return false
		}
	}
	return true
}
