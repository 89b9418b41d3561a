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

// busy is the flag set that keeps a frame from the allocator: a frame
// is free exactly when it is neither allocated nor a shadow copy.
const busy = FlagAllocated | FlagShadow

// tierState is the allocator state for one tier: its part of the
// machine's flags column, which doubles as the free map, with a
// next-fit cursor for base pages (allocating upward) and a separate
// downward cursor for huge runs, which keeps small and huge
// allocations from fragmenting each other.
type tierState struct {
	spec TierSpec
	base PFN // first frame of this tier's contiguous PFN range
	// flags is PhysMem.flags[base : base+spec.Frames], indexed by
	// the tier-local frame number.
	flags     []PageFlags
	freeCount int
	cursor    int // next-fit position for base pages
	hugeCur   int // next-fit position (from top) for huge runs
	inUse     int
	// shadowCount tracks frames holding shadow copies: neither free
	// nor in use. Conservation per tier is
	// inUse + freeCount + shadowCount == len(flags).
	shadowCount int
	// hiWater is one past the highest local index ever claimed: the
	// dense allocated-PFN span the per-epoch walks cover. Frees do
	// not lower it (the walks still test each frame's flags), but base
	// allocation is next-fit from the bottom and huge allocation
	// top-down from hugeCur, so in practice the span stays tight to
	// the working set and the epoch walks skip the unallocated tail
	// instead of re-discovering it every harvest.
	hiWater int
}

// PhysMem is the machine's physical memory: a contiguous PFN space
// carved into tiers, a page descriptor and a flags byte per frame, and
// per-tier frame allocators.
type PhysMem struct {
	tiers []tierState
	pds   []PageDescriptor
	// flags holds each frame's PageFlags, one byte per frame. The
	// allocation scans read it and touch a descriptor only for the
	// frames that pass.
	flags []PageFlags
	// trueTotal, once TrackTrueTotals has run, holds each frame's
	// Epoch.True summed over finished epochs. Only emul's hot-page
	// test reads it, so a machine without an emulator pays nothing
	// for it. Unexported: only this package's epoch fold, claim and
	// carry write it.
	trueTotal []uint64

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
	// Zeroed descriptors and flags are free frames: nothing walks
	// the frames here.
	pm := &PhysMem{
		tiers: make([]tierState, len(specs)),
		pds:   make([]PageDescriptor, total),
		flags: make([]PageFlags, total),
	}
	next := 0
	for i, s := range specs {
		ts := &pm.tiers[i]
		ts.spec = s
		ts.base = PFN(next)
		ts.flags = pm.flags[next : next+s.Frames : next+s.Frames]
		ts.freeCount = s.Frames
		ts.hugeCur = s.Frames
		next += s.Frames
	}
	return pm, nil
}

// TrackTrueTotals gives the machine its all-time ground-truth column:
// from now on each epoch fold adds a frame's Epoch.True to its total,
// and migration carries the total with the page. Totals start at
// zero, so the emulator that reads them attaches before the first
// epoch ends. A second call changes nothing.
func (pm *PhysMem) TrackTrueTotals() {
	if pm.trueTotal == nil {
		pm.trueTotal = make([]uint64, len(pm.pds))
	}
}

// TrueTotal returns a frame's all-time ground-truth total: Epoch.True
// summed over finished epochs. It is 0 on a machine that does not
// track totals.
func (pm *PhysMem) TrueTotal(pfn PFN) uint64 {
	if pm.trueTotal == nil {
		return 0
	}
	return pm.trueTotal[pfn]
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
	return ts.base, ts.base + PFN(len(ts.flags))
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

// Flags returns a frame's page-state bits.
func (pm *PhysMem) Flags(pfn PFN) PageFlags { return pm.flags[pfn] }

// Allocated reports whether the frame backs a live mapping.
func (pm *PhysMem) Allocated(pfn PFN) bool { return pm.flags[pfn]&FlagAllocated != 0 }

// SetNonMigratable sets or clears an allocated frame's
// FlagNonMigratable: a pinned page the policy must not move. The next
// claim of the frame clears it.
func (pm *PhysMem) SetNonMigratable(pfn PFN, pinned bool) {
	if !pm.Allocated(pfn) {
		panic(fmt.Sprintf("mem: SetNonMigratable on unallocated PFN %d", pfn))
	}
	if pinned {
		pm.flags[pfn] |= FlagNonMigratable
	} else {
		pm.flags[pfn] &^= FlagNonMigratable
	}
}

// ResetEpoch folds a frame's epoch ground truth into its all-time
// total, when the machine tracks totals, and clears the epoch
// evidence.
func (pm *PhysMem) ResetEpoch(pfn PFN) {
	pd := &pm.pds[pfn]
	if pm.trueTotal != nil {
		pm.trueTotal[pfn] += uint64(pd.Epoch.True)
	}
	pd.Epoch = Evidence{}
}

// CarryProfile copies src's profiling state (its epoch evidence and,
// when tracked, its all-time total) to dst: hotness belongs to the
// logical page, not the frame, so every path that moves a page to a
// new frame carries it.
func (pm *PhysMem) CarryProfile(dst, src PFN) {
	pm.pds[dst].Epoch = pm.pds[src].Epoch
	if pm.trueTotal != nil {
		pm.trueTotal[dst] = pm.trueTotal[src]
	}
}

// claim marks one frame allocated and initializes its descriptor.
func (pm *PhysMem) claim(ts *tierState, local int, pid int32, vpn VPN) PFN {
	ts.flags[local] = FlagAllocated
	ts.freeCount--
	ts.inUse++
	if local >= ts.hiWater {
		ts.hiWater = local + 1
	}
	pfn := ts.base + PFN(local)
	pm.pds[pfn] = PageDescriptor{VPage: vpn, PID: pid}
	if pm.trueTotal != nil {
		pm.trueTotal[pfn] = 0
	}
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
	n := len(ts.flags)
	for scanned := 0; scanned < n; scanned++ {
		i := ts.cursor
		ts.cursor++
		if ts.cursor == n {
			ts.cursor = 0
		}
		if ts.flags[i]&busy == 0 {
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
		if ts.hugeCur != len(ts.flags) {
			if pfn, ok := pm.allocHugeIn(ts, p, vpnBase, len(ts.flags)); ok {
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
		for _, f := range ts.flags[start : start+HugePages] {
			if f&busy != 0 {
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

// Free returns a frame to its tier: clearing its flags byte frees it.
// Freeing a shadowed primary drops its shadow too — the page's
// identity is gone, so the shadow backs nothing. Shadow frames
// themselves are not Allocated and must go through the shadow
// lifecycle, never Free.
func (pm *PhysMem) Free(pfn PFN) {
	f := pm.flags[pfn]
	if f&FlagAllocated == 0 {
		panic(fmt.Sprintf("mem: double free of PFN %d", pfn))
	}
	if f&FlagShadowed != 0 {
		pm.dropShadow(PFN(pm.pds[pfn].ShadowLink))
	}
	pm.flags[pfn] = 0
	ts := &pm.tiers[pm.TierOf(pfn)]
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
	for i, f := range ts.flags[:ts.hiWater] {
		if f&FlagAllocated != 0 {
			pfn := ts.base + PFN(i)
			fn(pfn, &pm.pds[pfn])
		}
	}
}

// ResetEpochAll resets every allocated frame's epoch evidence, the
// bulk form of ResetEpoch used at epoch horizons. Like
// ForEachAllocated it walks only the claimed spans.
func (pm *PhysMem) ResetEpochAll() {
	for t := range pm.tiers {
		ts := &pm.tiers[t]
		if ts.inUse == 0 {
			continue
		}
		for i, f := range ts.flags[:ts.hiWater] {
			if f&FlagAllocated != 0 {
				pm.ResetEpoch(ts.base + PFN(i))
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
	f := pm.flags[oldPFN]
	if f&FlagAllocated == 0 {
		panic(fmt.Sprintf("mem: MakeShadow on unallocated PFN %d", oldPFN))
	}
	old := &pm.pds[oldPFN]
	if f&FlagShadowed != 0 {
		pm.dropShadow(PFN(old.ShadowLink))
		pm.ctrShadowInvalid.Add(1)
	}
	pm.flags[oldPFN] = FlagShadow
	old.ShadowLink = uint32(newPFN)
	ts := &pm.tiers[pm.TierOf(oldPFN)]
	ts.inUse--
	ts.shadowCount++
	pm.flags[newPFN] |= FlagShadowed
	pm.pds[newPFN].ShadowLink = uint32(oldPFN)
	pm.ctrShadowMade.Add(1)
}

// ShadowFor returns the frame holding a valid shadow of pfn's page in
// tier t, if one exists.
func (pm *PhysMem) ShadowFor(pfn PFN, t TierID) (PFN, bool) {
	if pm.flags[pfn]&FlagShadowed == 0 {
		return 0, false
	}
	if spfn := PFN(pm.pds[pfn].ShadowLink); pm.TierOf(spfn) == t {
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
	if pm.flags[pfn]&FlagShadowed == 0 {
		panic(fmt.Sprintf("mem: AdoptShadow on unshadowed PFN %d", pfn))
	}
	pd := &pm.pds[pfn]
	spfn := PFN(pd.ShadowLink)
	pm.pds[spfn] = PageDescriptor{VPage: pd.VPage, PID: pd.PID}
	pm.flags[spfn] = FlagAllocated
	pm.CarryProfile(spfn, pfn)
	pm.flags[pfn] &^= FlagShadowed
	ts := &pm.tiers[pm.TierOf(spfn)]
	ts.inUse++
	ts.shadowCount--
	return spfn
}

// InvalidateShadowOf drops the shadow of pfn's page, if any: the copy
// no longer matches the page content (a write landed, or the fault
// plane said so).
func (pm *PhysMem) InvalidateShadowOf(pfn PFN) {
	if pm.flags[pfn]&FlagShadowed == 0 {
		return
	}
	pm.dropShadow(PFN(pm.pds[pfn].ShadowLink))
	pm.flags[pfn] &^= FlagShadowed
	pm.ctrShadowInvalid.Add(1)
}

// NoteWrite is the CPU write path's hook, called on every D-bit 0→1
// transition: the first store to a clean page makes any shadow of it
// stale. A page without a shadow costs one flag test.
func (pm *PhysMem) NoteWrite(pfn PFN) {
	if pm.flags[pfn]&FlagShadowed != 0 {
		pm.InvalidateShadowOf(pfn)
	}
}

// dropShadow frees a shadow frame by clearing its flags byte. The
// caller owns the primary's FlagShadowed bookkeeping.
func (pm *PhysMem) dropShadow(spfn PFN) {
	if pm.flags[spfn]&FlagShadow == 0 {
		panic(fmt.Sprintf("mem: dropShadow on non-shadow PFN %d", spfn))
	}
	pm.flags[spfn] = 0
	ts := &pm.tiers[pm.TierOf(spfn)]
	ts.freeCount++
	ts.shadowCount--
}

// reclaimShadowIn frees the lowest-indexed shadow frame in a tier to
// satisfy allocation pressure, clearing the primary's shadowed mark.
// Lowest index first is arbitrary but fixed — reclaim order must be a
// pure function of allocator state for byte-identical replays.
func (pm *PhysMem) reclaimShadowIn(ts *tierState) {
	for i, f := range ts.flags[:ts.hiWater] {
		if f&FlagShadow == 0 {
			continue
		}
		spfn := ts.base + PFN(i)
		pm.flags[pm.pds[spfn].ShadowLink] &^= FlagShadowed
		pm.dropShadow(spfn)
		pm.ctrShadowReclaim.Add(1)
		return
	}
	panic("mem: reclaimShadowIn found no shadow despite shadowCount > 0")
}
