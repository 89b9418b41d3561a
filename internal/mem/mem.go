// Package mem models the physical memory of a tiered-memory machine:
// byte addresses, page frames, per-tier frame allocation, and the
// per-frame page descriptors that TMP extends with profiling state
// (the paper extends Linux's struct page the same way, §III-B1).
package mem

import "fmt"

// Page geometry. The simulator uses x86-style 4 KiB base pages.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// TierID identifies a memory tier. Tier 0 is the fast tier ("tier 1
// memory" in the paper: DRAM); tier 1 is the slow tier ("tier 2": NVM).
// A chain has a handful of tiers; 32 bits keep core.PageStat at 40
// bytes.
type TierID int32

const (
	// FastTier is DRAM-class memory (the paper's tier 1).
	FastTier TierID = 0
	// SlowTier is NVM-class memory (the paper's tier 2).
	SlowTier TierID = 1
)

// String returns "fast" or "slow" (or a numeric form for other IDs).
func (t TierID) String() string {
	switch t {
	case FastTier:
		return "fast"
	case SlowTier:
		return "slow"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// PFN is a physical frame number.
type PFN uint64

// PAddrOf returns the first byte address of the frame.
func (p PFN) PAddrOf() uint64 { return uint64(p) << PageShift }

// PFNOf returns the frame containing a physical byte address.
func PFNOf(paddr uint64) PFN { return PFN(paddr >> PageShift) }

// VPN is a virtual page number.
type VPN uint64

// VPNOf returns the virtual page containing a virtual byte address.
func VPNOf(vaddr uint64) VPN { return VPN(vaddr >> PageShift) }

// VAddrOf returns the first byte address of the virtual page.
func (v VPN) VAddrOf() uint64 { return uint64(v) << PageShift }

// PageFlags carries page-state bits relevant to placement.
type PageFlags uint8

const (
	// FlagAllocated marks a frame backing a live mapping.
	FlagAllocated PageFlags = 1 << iota
	// FlagNonMigratable marks frames the policy must not move
	// (pinned/kernel pages; the paper's step 2 filters these).
	FlagNonMigratable
	// FlagShadow marks a frame holding a non-exclusive shadow copy of a
	// page promoted out of this tier (the Nomad model). Shadow frames
	// are neither allocated nor free: they back no mapping, but a
	// demotion back to this tier can adopt one with a remap and zero
	// copy work. ShadowLink names the allocated primary frame.
	FlagShadow
	// FlagShadowed marks an allocated frame whose page still has a
	// valid shadow copy in a slower tier; ShadowLink names the shadow
	// frame. Cleared when the page is written (the copy goes stale) or
	// the shadow frame is reclaimed for an allocation.
	FlagShadowed
)

// Evidence is one page's per-epoch observation counts, one per
// evidence source. The page descriptor accumulates them, the harvest
// copies them whole into core.PageStat, and migration carries them
// with the page, so a new source is one field here.
type Evidence struct {
	Abit  uint32 // A-bit observations
	Trace uint32 // IBS/PEBS samples
	// Dev counts accesses observed by a CXL-resident hot-page tracker
	// (the NeoMem model: counters live on the device and see physical
	// traffic with zero host sampling cost). Always zero on frames
	// outside device tiers and in runs without a devprof tracker.
	Dev uint32
	// True is ground truth maintained by the simulator itself
	// (invisible to any profiling method): demand accesses served from
	// memory, the quantity the paper's Fig. 6 hitrate and Oracle policy
	// are defined over.
	True uint32
}

// Add accumulates o into e.
func (e *Evidence) Add(o Evidence) {
	e.Abit += o.Abit
	e.Trace += o.Trace
	e.Dev += o.Dev
	e.True += o.True
}

// PageDescriptor is the per-frame metadata record. TMP accumulates
// profiling observations here (the paper's extended struct page): the
// current epoch's Evidence, which the profiler harvests and clears at
// each epoch horizon.
//
// The descriptor holds no frame number, tier or flags: the frame is
// its index in PhysMem's array, the tier is the one whose PFN range
// holds that index (PhysMem.TierOf), and the page-state bits are the
// frame's byte in PhysMem's flags column (PhysMem.Flags). A zeroed
// descriptor and flags byte are a free frame, so a new machine is
// ready without a pass over its frames. The record is 32 bytes, paid
// once per simulated frame.
type PageDescriptor struct {
	VPage VPN // virtual page currently mapped to this frame

	// Epoch is the evidence observed this epoch.
	Epoch Evidence

	// PID is the owning process. Like VPage it means something only
	// while the frame is allocated or holds a shadow copy; a freed
	// frame keeps its last owner until it is claimed again. The
	// allocator rejects a PID outside 32 bits (ErrPIDRange): this
	// field stores it in 32 bits, as telemetry's 24-byte migration
	// record does.
	PID int32

	// ShadowLink pairs a shadowed primary with its shadow frame:
	// on a FlagShadowed frame it names the shadow, on a FlagShadow
	// frame it names the primary. Meaningless unless one of those
	// flags is set. NewPhysMem rejects a machine whose PFNs do not
	// fit 32 bits (ErrTooManyFrames).
	ShadowLink uint32
}
