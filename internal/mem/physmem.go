package mem

import (
	"errors"
	"fmt"
	"math"

	"tieredmem/internal/fault"
	"tieredmem/internal/telemetry"
)

// ErrOutOfMemory is returned when a tier (and any spill target) has no
// free frames left.
var ErrOutOfMemory = errors.New("mem: out of physical memory")

// ErrNoContiguous is returned when a huge allocation cannot find a
// contiguous, aligned run of free frames (the THP fallback condition).
var ErrNoContiguous = errors.New("mem: no contiguous frame run for huge page")

// ErrNoTiers rejects a PhysMem configured with zero tiers.
var ErrNoTiers = errors.New("mem: at least one tier required")

// ErrTooManyFrames rejects a PhysMem of 2^32 frames or more: a
// descriptor's ShadowLink stores a PFN in 32 bits.
var ErrTooManyFrames = errors.New("mem: frame count exceeds 32-bit PFN range")

// ErrPIDRange rejects an allocation for a PID outside int32: a
// descriptor stores its owner in 32 bits (PageDescriptor.PID), and so
// does telemetry's 24-byte migration record.
var ErrPIDRange = errors.New("mem: pid outside 32-bit range")

// ErrTierFull is the no-spill allocation failure (AllocIn): the target
// tier has no free frame, or the fault plane injected transient
// allocation pressure. Transient: the mover retries.
var ErrTierFull = errors.New("mem: tier full")

// errTierExhausted is AllocIn's error for a tier that really is out of
// frames: it wraps ErrOutOfMemory as well as ErrTierFull, since the
// machine has run out of that memory, not merely been told so.
var errTierExhausted = fmt.Errorf("%w (%w)", ErrTierFull, ErrOutOfMemory)

// HugePages is the number of base frames in one 2 MiB huge page.
const HugePages = 512

// TierSpec describes one tier's geometry and timing.
type TierSpec struct {
	Name         string
	Frames       int   // capacity in 4 KiB frames
	ReadLatency  int64 // ns for a 64 B line read served by this tier
	WriteLatency int64 // ns for a 64 B line write
	// Device marks a tier backed by a self-profiling device (CXL
	// memory expander with NeoMem-style hot-page counters): a devprof
	// tracker can observe physical accesses landing in this tier.
	Device bool
}

// Validate reports configuration errors.
func (s TierSpec) Validate() error {
	if s.Frames <= 0 {
		return fmt.Errorf("mem: tier %q: frame count %d must be positive", s.Name, s.Frames)
	}
	if s.ReadLatency <= 0 || s.WriteLatency <= 0 {
		return fmt.Errorf("mem: tier %q: latencies must be positive", s.Name)
	}
	return nil
}

// DefaultTiers returns a two-tier layout with the given fast-tier frame
// count and slow-tier frame count, using DRAM-like and NVM-like
// latencies. Per §IV the slow tier is "not orders of magnitude slower":
// we use roughly 4x read and 8x write latency, in line with 3D-XPoint
// class media.
func DefaultTiers(fastFrames, slowFrames int) []TierSpec {
	return []TierSpec{
		{Name: "dram", Frames: fastFrames, ReadLatency: 80, WriteLatency: 80},
		{Name: "nvm", Frames: slowFrames, ReadLatency: 320, WriteLatency: 640},
	}
}

// tierState is the allocator state for one tier: a free bitmap with a
// next-fit cursor for base pages (allocating upward) and a separate
// downward cursor for huge runs, which keeps small and huge
// allocations from fragmenting each other.
type tierState struct {
	spec      TierSpec
	base      PFN // first frame of this tier's contiguous PFN range
	free      []bool
	freeCount int
	cursor    int // next-fit position for base pages
	hugeCur   int // next-fit position (from top) for huge runs
	inUse     int
	// shadowCount tracks frames holding shadow copies: neither free
	// nor in use. Conservation per tier is
	// inUse + freeCount + shadowCount == len(free).
	shadowCount int
	// hiWater is one past the highest local index ever claimed: the
	// dense allocated-PFN span the per-epoch walks cover. Frees do
	// not lower it (the walks still check Allocated()), but base
	// allocation is next-fit from the bottom and huge allocation
	// top-down from hugeCur, so in practice the span stays tight to
	// the working set and the epoch walks skip the unallocated tail
	// instead of re-discovering it every harvest.
	hiWater int
}

// PhysMem is the machine's physical memory: a contiguous PFN space
// carved into tiers, a page descriptor per frame, and per-tier frame
// allocators.
type PhysMem struct {
	tiers []tierState
	pds   []PageDescriptor

	// Telemetry counters; nil (free no-ops) when telemetry is off.
	ctrAlloc         *telemetry.Counter
	ctrAllocHuge     *telemetry.Counter
	ctrFree          *telemetry.Counter
	ctrSpill         *telemetry.Counter
	ctrShadowMade    *telemetry.Counter
	ctrShadowInvalid *telemetry.Counter
	ctrShadowReclaim *telemetry.Counter

	// faults, when non-nil, can fail AllocIn with transient pressure
	// (SiteENOMEM). Demand allocation (Alloc/AllocHuge) is never
	// injected: faults target the migration path, not correctness of
	// first-touch placement.
	faults *fault.Plane
}

// SetFaultPlane attaches the fault-injection plane. nil (the default)
// injects nothing.
func (pm *PhysMem) SetFaultPlane(p *fault.Plane) { pm.faults = p }

// SetTracer wires the allocator's telemetry counters: frames claimed
// and freed, huge allocations, and spill allocations (fast tier full,
// frame taken from a slower tier). Counting only — allocation
// decisions are never affected.
func (pm *PhysMem) SetTracer(t *telemetry.Tracer) {
	pm.ctrAlloc = t.Counter("mem/alloc_frames")
	pm.ctrAllocHuge = t.Counter("mem/alloc_huge")
	pm.ctrFree = t.Counter("mem/free_frames")
	pm.ctrSpill = t.Counter("mem/spill_frames")
	pm.ctrShadowMade = t.Counter("mem/shadow_made")
	pm.ctrShadowInvalid = t.Counter("mem/shadow_invalidated")
	pm.ctrShadowReclaim = t.Counter("mem/shadow_reclaimed")
}

// NewPhysMem lays the tiers out back to back in a single PFN space
// (tier 0 first), mirroring how CPU-less NUMA nodes expose NVM after
// DRAM in the physical map.
func NewPhysMem(specs []TierSpec) (*PhysMem, error) {
	if len(specs) == 0 {
		return nil, ErrNoTiers
	}
	total := 0
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		total += s.Frames
	}
	if uint64(total) > math.MaxUint32 {
		return nil, fmt.Errorf("mem: %d frames: %w", total, ErrTooManyFrames)
	}
	pm := &PhysMem{
		tiers: make([]tierState, len(specs)),
		pds:   make([]PageDescriptor, total),
	}
	next := PFN(0)
	for i, s := range specs {
		ts := &pm.tiers[i]
		ts.spec = s
		ts.base = next
		ts.free = make([]bool, s.Frames)
		for f := range ts.free {
			ts.free[f] = true
		}
		ts.freeCount = s.Frames
		ts.hugeCur = s.Frames
		next += PFN(s.Frames)
	}
	for i := range pm.pds {
		pm.pds[i].PID = -1
	}
	return pm, nil
}

// Tiers returns the number of tiers.
func (pm *PhysMem) Tiers() int { return len(pm.tiers) }

// TotalFrames returns the machine's total frame count.
func (pm *PhysMem) TotalFrames() int { return len(pm.pds) }

// TierSpecOf returns the spec of a tier.
func (pm *PhysMem) TierSpecOf(t TierID) TierSpec { return pm.tiers[t].spec }

// FreeFrames returns the number of unallocated frames in a tier.
func (pm *PhysMem) FreeFrames(t TierID) int { return pm.tiers[t].freeCount }

// UsedFrames returns the number of allocated frames in a tier.
func (pm *PhysMem) UsedFrames(t TierID) int { return pm.tiers[t].inUse }

// TierOf returns the tier whose PFN range holds a frame, found by
// comparing the frame with each tier's base. Like Page it panics on a
// PFN past the last frame.
func (pm *PhysMem) TierOf(pfn PFN) TierID {
	if pfn >= PFN(len(pm.pds)) {
		panic(fmt.Sprintf("mem: PFN %d out of range (total %d frames)", pfn, len(pm.pds)))
	}
	t := len(pm.tiers) - 1
	for pfn < pm.tiers[t].base {
		t--
	}
	return TierID(t)
}

// TierRange returns the half-open PFN range [lo, hi) a tier owns in
// the machine's contiguous frame space. TierOf(pfn) is the tier whose
// range holds pfn.
func (pm *PhysMem) TierRange(t TierID) (lo, hi PFN) {
	ts := &pm.tiers[t]
	return ts.base, ts.base + PFN(len(ts.free))
}

// PhysToPage returns the page descriptor for the frame holding paddr,
// the simulator's phys_to_page().
func (pm *PhysMem) PhysToPage(paddr uint64) *PageDescriptor {
	return pm.Page(PFNOf(paddr))
}

// Page returns the descriptor of a frame.
func (pm *PhysMem) Page(pfn PFN) *PageDescriptor {
	if int(pfn) >= len(pm.pds) {
		panic(fmt.Sprintf("mem: PFN %d out of range (total %d frames)", pfn, len(pm.pds)))
	}
	return &pm.pds[pfn]
}

// claim marks one frame allocated and initializes its descriptor.
func (pm *PhysMem) claim(ts *tierState, local int, pid int32, vpn VPN) PFN {
	ts.free[local] = false
	ts.freeCount--
	ts.inUse++
	if local >= ts.hiWater {
		ts.hiWater = local + 1
	}
	pfn := ts.base + PFN(local)
	pd := &pm.pds[pfn]
	pd.PID = pid
	pd.VPage = vpn
	pd.Flags = FlagAllocated
	pd.ShadowLink = 0
	pd.Epoch, pd.TrueTotal = Evidence{}, 0
	pm.ctrAlloc.Add(1)
	return pfn
}

// allocIn takes one free frame from a tier using the next-fit cursor.
// When the tier is out of free frames but holds shadow copies, the
// lowest-indexed shadow is reclaimed first: shadows are a cache of
// clean page content and always lose to real allocation demand.
func (pm *PhysMem) allocIn(ti int, pid int32, vpn VPN) (PFN, bool) {
	ts := &pm.tiers[ti]
	if ts.freeCount == 0 {
		if ts.shadowCount == 0 {
			return 0, false
		}
		pm.reclaimShadowIn(ts)
	}
	n := len(ts.free)
	for scanned := 0; scanned < n; scanned++ {
		i := ts.cursor
		ts.cursor++
		if ts.cursor == n {
			ts.cursor = 0
		}
		if ts.free[i] {
			return pm.claim(ts, i, pid, vpn), true
		}
	}
	return 0, false
}

// pid32 narrows an allocation's PID to the descriptor's 32 bits,
// rejecting one that does not fit with ErrPIDRange.
func pid32(pid int) (int32, error) {
	if pid < math.MinInt32 || pid > math.MaxInt32 {
		return 0, ErrPIDRange
	}
	return int32(pid), nil
}

// Alloc takes a free frame from the given tier for (pid, vpn). If the
// tier is exhausted it spills to the next slower tier, the behaviour of
// a first-come-first-allocate tiered system (the paper's baseline).
func (pm *PhysMem) Alloc(t TierID, pid int, vpn VPN) (PFN, error) {
	p, err := pid32(pid)
	if err != nil {
		return 0, err
	}
	for ti := int(t); ti < len(pm.tiers); ti++ {
		if pfn, ok := pm.allocIn(ti, p, vpn); ok {
			if ti != int(t) {
				pm.ctrSpill.Add(1)
			}
			return pfn, nil
		}
	}
	return 0, ErrOutOfMemory
}

// AllocIn is like Alloc but fails rather than spilling when the tier is
// full; the page mover uses it during migrations. Both of its refusals
// satisfy errors.Is(err, ErrTierFull), so the mover treats them alike:
// injected pressure returns ErrTierFull itself, and a tier really out
// of frames one shared error that also wraps ErrOutOfMemory.
func (pm *PhysMem) AllocIn(t TierID, pid int, vpn VPN) (PFN, error) {
	p, err := pid32(pid)
	if err != nil {
		return 0, err
	}
	if pm.faults.FailAllocIn() {
		return 0, ErrTierFull
	}
	if pfn, ok := pm.allocIn(int(t), p, vpn); ok {
		return pfn, nil
	}
	return 0, errTierExhausted
}

// AllocHuge finds a 512-frame aligned contiguous run in the given tier
// (spilling to slower tiers), claiming every frame for the huge
// mapping rooted at vpnBase. It returns the base PFN.
// ErrNoContiguous signals the caller to fall back to base pages,
// exactly like THP allocation failure.
func (pm *PhysMem) AllocHuge(t TierID, pid int, vpnBase VPN) (PFN, error) {
	if uint64(vpnBase)%HugePages != 0 {
		return 0, fmt.Errorf("mem: huge vpn base %#x not 2 MiB aligned", uint64(vpnBase))
	}
	p, err := pid32(pid)
	if err != nil {
		return 0, err
	}
	exhausted := true
	for ti := int(t); ti < len(pm.tiers); ti++ {
		ts := &pm.tiers[ti]
		if ts.freeCount < HugePages {
			continue
		}
		exhausted = false
		if pfn, ok := pm.allocHugeIn(ts, p, vpnBase, ts.hugeCur); ok {
			pm.ctrAllocHuge.Add(1)
			return pfn, nil
		}
		// Wrap once: retry from the top of the tier.
		if ts.hugeCur != len(ts.free) {
			if pfn, ok := pm.allocHugeIn(ts, p, vpnBase, len(ts.free)); ok {
				pm.ctrAllocHuge.Add(1)
				return pfn, nil
			}
		}
	}
	if exhausted {
		return 0, ErrOutOfMemory
	}
	return 0, ErrNoContiguous
}

// allocHugeIn scans downward from the local index `from` for an
// aligned free run of HugePages frames and claims it.
func (pm *PhysMem) allocHugeIn(ts *tierState, pid int32, vpnBase VPN, from int) (PFN, bool) {
	start := from - HugePages
	if start >= 0 {
		// Align the tier-local start so the resulting PFN is 2 MiB
		// aligned.
		start -= (int(ts.base) + start) % HugePages
	}
	for ; start >= 0; start -= HugePages {
		runFree := true
		for i := start; i < start+HugePages; i++ {
			if !ts.free[i] {
				runFree = false
				break
			}
		}
		if !runFree {
			continue
		}
		for i := 0; i < HugePages; i++ {
			pm.claim(ts, start+i, pid, vpnBase+VPN(i))
		}
		ts.hugeCur = start
		return ts.base + PFN(start), true
	}
	return 0, false
}

// Free returns a frame to its tier's free bitmap. Freeing a shadowed
// primary drops its shadow too — the page's identity is gone, so the
// shadow backs nothing. Shadow frames themselves are not Allocated and
// must go through the shadow lifecycle, never Free.
func (pm *PhysMem) Free(pfn PFN) {
	pd := &pm.pds[pfn]
	if !pd.Allocated() {
		panic(fmt.Sprintf("mem: double free of PFN %d", pfn))
	}
	if pd.Flags&FlagShadowed != 0 {
		pm.dropShadow(PFN(pd.ShadowLink))
	}
	pd.Flags = 0
	pd.PID = -1
	pd.ShadowLink = 0
	ts := &pm.tiers[pm.TierOf(pfn)]
	local := int(pfn - ts.base)
	ts.free[local] = true
	ts.freeCount++
	ts.inUse--
	pm.ctrFree.Add(1)
}

// FreeHuge releases all 512 frames of a huge allocation.
func (pm *PhysMem) FreeHuge(basePFN PFN) {
	for i := 0; i < HugePages; i++ {
		pm.Free(basePFN + PFN(i))
	}
}

// ForEachAllocated invokes fn with the frame number and descriptor of
// every allocated frame, ascending PFN. The walk covers each tier's
// claimed-watermark span rather than the whole frame array, so
// epoch-horizon passes scale with the working set, not the machine
// size.
func (pm *PhysMem) ForEachAllocated(fn func(PFN, *PageDescriptor)) {
	for t := range pm.tiers {
		pm.ForEachAllocatedIn(TierID(t), fn)
	}
}

// ForEachAllocatedIn invokes fn for every allocated frame of one tier,
// ascending PFN, over the tier's claimed-watermark span. A pass that
// only needs some tiers (the mover's demotion walk skips the bottom
// one) pays for those tiers alone.
func (pm *PhysMem) ForEachAllocatedIn(t TierID, fn func(PFN, *PageDescriptor)) {
	ts := &pm.tiers[t]
	if ts.inUse == 0 {
		return
	}
	lo := int(ts.base)
	for i := lo; i < lo+ts.hiWater; i++ {
		if pm.pds[i].Allocated() {
			fn(PFN(i), &pm.pds[i])
		}
	}
}

// ResetEpochAll resets every allocated frame's epoch evidence, the
// bulk form of PageDescriptor.ResetEpoch used at epoch horizons. Like
// ForEachAllocated it walks only the claimed spans.
func (pm *PhysMem) ResetEpochAll() {
	for t := range pm.tiers {
		ts := &pm.tiers[t]
		if ts.inUse == 0 {
			continue
		}
		lo := int(ts.base)
		for i := lo; i < lo+ts.hiWater; i++ {
			if pm.pds[i].Allocated() {
				pm.pds[i].ResetEpoch()
			}
		}
	}
}

// Shadow copies (the Nomad model, "Non-Exclusive Memory Tiering via
// Transactional Page Migration"). When the transactional mover
// promotes a page, the vacated slow-tier frame is kept as a shadow
// instead of being freed: as long as the page stays clean, demoting it
// back to that tier is a remap with zero copy work. A shadow frame is
// a third allocator state — not free (an allocation may not take it
// while valid, except under pressure), not in use (it backs no
// mapping). The CPU's write path invalidates a shadow on the page's
// first dirtying store (NoteWrite), and the fault plane can invalidate
// one at adoption time (SiteShadowStale, drawn by the mover).

// ShadowFrames returns the number of frames in a tier holding shadow
// copies.
func (pm *PhysMem) ShadowFrames(t TierID) int { return pm.tiers[t].shadowCount }

// MakeShadow converts the just-vacated frame of a promoted page into a
// shadow of its new primary frame. Any older shadow the page still had
// (from a promotion out of a deeper tier) is superseded and dropped.
// The caller has already copied the page's state to newPFN and
// remapped; oldPFN must still be Allocated.
func (pm *PhysMem) MakeShadow(oldPFN, newPFN PFN) {
	old := &pm.pds[oldPFN]
	if !old.Allocated() {
		panic(fmt.Sprintf("mem: MakeShadow on unallocated PFN %d", oldPFN))
	}
	if old.Flags&FlagShadowed != 0 {
		pm.dropShadow(PFN(old.ShadowLink))
		pm.ctrShadowInvalid.Add(1)
	}
	old.Flags = FlagShadow
	old.ShadowLink = uint32(newPFN)
	ts := &pm.tiers[pm.TierOf(oldPFN)]
	ts.inUse--
	ts.shadowCount++
	pd := &pm.pds[newPFN]
	pd.Flags |= FlagShadowed
	pd.ShadowLink = uint32(oldPFN)
	pm.ctrShadowMade.Add(1)
}

// ShadowFor returns the frame holding a valid shadow of pfn's page in
// tier t, if one exists.
func (pm *PhysMem) ShadowFor(pfn PFN, t TierID) (PFN, bool) {
	pd := &pm.pds[pfn]
	if pd.Flags&FlagShadowed == 0 {
		return 0, false
	}
	if spfn := PFN(pd.ShadowLink); pm.TierOf(spfn) == t {
		return spfn, true
	}
	return 0, false
}

// AdoptShadow turns the shadow of pfn's page back into the page's
// primary frame: the shadow frame becomes Allocated carrying the
// page's profiling state, the old primary loses its shadowed mark, and
// the adopted PFN is returned. The caller remaps the page to it and
// frees the old primary — no copy happens, which is the entire point.
func (pm *PhysMem) AdoptShadow(pfn PFN) PFN {
	pd := &pm.pds[pfn]
	if pd.Flags&FlagShadowed == 0 {
		panic(fmt.Sprintf("mem: AdoptShadow on unshadowed PFN %d", pfn))
	}
	spfn := PFN(pd.ShadowLink)
	spd := &pm.pds[spfn]
	spd.PID = pd.PID
	spd.VPage = pd.VPage
	spd.Flags = FlagAllocated
	spd.ShadowLink = 0
	spd.CarryProfile(pd)
	pd.Flags &^= FlagShadowed
	pd.ShadowLink = 0
	ts := &pm.tiers[pm.TierOf(spfn)]
	ts.inUse++
	ts.shadowCount--
	return spfn
}

// InvalidateShadowOf drops the shadow of pfn's page, if any: the copy
// no longer matches the page content (a write landed, or the fault
// plane said so).
func (pm *PhysMem) InvalidateShadowOf(pfn PFN) {
	pd := &pm.pds[pfn]
	if pd.Flags&FlagShadowed == 0 {
		return
	}
	pm.dropShadow(PFN(pd.ShadowLink))
	pd.Flags &^= FlagShadowed
	pd.ShadowLink = 0
	pm.ctrShadowInvalid.Add(1)
}

// NoteWrite is the CPU write path's hook, called on every D-bit 0→1
// transition: the first store to a clean page makes any shadow of it
// stale. A page without a shadow costs one flag test.
func (pm *PhysMem) NoteWrite(pfn PFN) {
	if pm.pds[pfn].Flags&FlagShadowed != 0 {
		pm.InvalidateShadowOf(pfn)
	}
}

// dropShadow returns a shadow frame to the free bitmap. The caller
// owns the primary's FlagShadowed bookkeeping.
func (pm *PhysMem) dropShadow(spfn PFN) {
	spd := &pm.pds[spfn]
	if spd.Flags&FlagShadow == 0 {
		panic(fmt.Sprintf("mem: dropShadow on non-shadow PFN %d", spfn))
	}
	spd.Flags = 0
	spd.PID = -1
	spd.ShadowLink = 0
	ts := &pm.tiers[pm.TierOf(spfn)]
	ts.free[int(spfn-ts.base)] = true
	ts.freeCount++
	ts.shadowCount--
}

// reclaimShadowIn frees the lowest-indexed shadow frame in a tier to
// satisfy allocation pressure, clearing the primary's shadowed mark.
// Lowest index first is arbitrary but fixed — reclaim order must be a
// pure function of allocator state for byte-identical replays.
func (pm *PhysMem) reclaimShadowIn(ts *tierState) {
	for i := 0; i < ts.hiWater; i++ {
		spfn := ts.base + PFN(i)
		spd := &pm.pds[spfn]
		if spd.Flags&FlagShadow == 0 {
			continue
		}
		primary := &pm.pds[spd.ShadowLink]
		primary.Flags &^= FlagShadowed
		primary.ShadowLink = 0
		pm.dropShadow(spfn)
		pm.ctrShadowReclaim.Add(1)
		return
	}
	panic("mem: reclaimShadowIn found no shadow despite shadowCount > 0")
}
