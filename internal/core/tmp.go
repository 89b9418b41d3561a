// Package core implements TMP, the tiered-memory profiler that is the
// paper's primary contribution. TMP combines three monitoring
// mechanisms — trace-based sampling (IBS/PEBS), PTE A-bit scanning,
// and hardware performance counters — into a single vendor-agnostic
// per-page hotness ranking that placement policies consume. The
// profiler is transparent: workloads need no modification; TMP
// observes retirement and page tables from the side, pays its costs in
// virtual time charged to the core running the daemon, and exposes a
// simple ranked-pages interface (§III, §IV step 1).
package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"tieredmem/internal/abit"
	"tieredmem/internal/core/pageidx"
	"tieredmem/internal/cpu"
	"tieredmem/internal/devprof"
	"tieredmem/internal/fault"
	"tieredmem/internal/hwpc"
	"tieredmem/internal/ibs"
	"tieredmem/internal/mem"
	"tieredmem/internal/pmu"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/trace"
)

// Method selects which monitoring evidence feeds a hotness rank. The
// paper's Fig. 6 compares the three arms. It is one byte, so the
// provenance decision record that stores it stays 40 bytes.
type Method uint8

const (
	// MethodAbit ranks by A-bit observations alone.
	MethodAbit Method = iota
	// MethodTrace ranks by IBS/PEBS samples alone.
	MethodTrace
	// MethodCombined is TMP's rank: the plain sum of every evidence
	// source (§IV step 1 — Fig. 2 shows the event populations are the
	// same order of magnitude, so no source is drowned out). On
	// machines with a device-profiled tier the sum includes the
	// device-side counts; without one the device column is always zero
	// and the rank is exactly the paper's two-source sum.
	MethodCombined
	// MethodDev ranks by device-side (CXL) tracker counts alone — the
	// NeoMem arm. Only meaningful on machines with a device tier and a
	// devprof tracker attached; elsewhere every page ranks zero.
	MethodDev
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodAbit:
		return "abit"
	case MethodTrace:
		return "ibs"
	case MethodCombined:
		return "tmp"
	case MethodDev:
		return "devprof"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ParseMethod is the inverse of String. It also accepts the aliases
// trace, combined and dev, and rejects every other name.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "abit":
		return MethodAbit, nil
	case "ibs", "trace":
		return MethodTrace, nil
	case "tmp", "combined":
		return MethodCombined, nil
	case "devprof", "dev":
		return MethodDev, nil
	default:
		return 0, fmt.Errorf("unknown method %q (abit, ibs, tmp, devprof)", s)
	}
}

// Methods lists the paper's ranking arms in presentation order.
// MethodDev is deliberately not here: it only produces evidence on
// machines with a device tier, so the multi-tier experiment cells opt
// into it explicitly instead of every harness iterating a dead arm.
var Methods = []Method{MethodAbit, MethodTrace, MethodCombined}

// PageKey identifies a logical page independent of its current frame,
// so rankings survive migration.
type PageKey struct {
	PID int
	VPN mem.VPN
}

// PageKeyLess is the canonical deterministic page order, (PID, VPN)
// ascending: the tie-break every ranking uses and the iteration order
// order.SortedKeysFunc callers should pin map walks to.
func PageKeyLess(a, b PageKey) bool {
	if a.PID != b.PID {
		return a.PID < b.PID
	}
	return a.VPN < b.VPN
}

// PageKeyCmp is PageKeyLess as a three-way comparison, for
// slices.SortFunc call sites.
func PageKeyCmp(a, b PageKey) int {
	if a.PID != b.PID {
		if a.PID < b.PID {
			return -1
		}
		return 1
	}
	if a.VPN != b.VPN {
		if a.VPN < b.VPN {
			return -1
		}
		return 1
	}
	return 0
}

// PageKeyHash is the hash every pageidx interning table over PageKey
// uses (SplitMix64-style finalizer over the mixed fields). Unseeded on
// purpose: slot placement never orders any output, and a fixed hash
// keeps runs bit-reproducible under debugging.
func PageKeyHash(k PageKey) uint64 {
	x := uint64(k.PID)*0x9E3779B97F4A7C15 + uint64(k.VPN)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// PageStat is one page's per-epoch observation record: the page's
// descriptor evidence as harvested, under its logical key.
type PageStat struct {
	Key  PageKey
	Tier mem.TierID
	mem.Evidence
}

// Rank returns the page's hotness under a method.
func (p *PageStat) Rank(m Method) uint64 {
	switch m {
	case MethodAbit:
		return uint64(p.Abit)
	case MethodTrace:
		return uint64(p.Trace)
	case MethodDev:
		return uint64(p.Dev)
	default:
		return uint64(p.Abit) + uint64(p.Trace) + uint64(p.Dev)
	}
}

// UsageFunc reports a process's resource usage as fractions of the
// machine total: CPU share and memory share. The TMP daemon filters
// processes with it (§III-B4, second optimization: profile processes
// with at least 5% CPU or 10% memory).
type UsageFunc func(pid int) (cpuFrac, memFrac float64)

const (
	// cpuFilterMin and memFilterMin are the daemon's process filter: a
	// process is profiled when either share is met.
	cpuFilterMin = 0.05
	memFilterMin = 0.10
	// daemonCore runs the TMP daemon and pays its profiling costs.
	daemonCore = 0
	// quarantineMinRounds is the minimum scan/window population
	// before the A-bit and HWPC fault rates are judged.
	quarantineMinRounds = 10
)

// Config parameterizes TMP.
type Config struct {
	IBS  ibs.Config
	Abit abit.Config
	HWPC hwpc.Config
	// Gating enables the HWPC-driven on/off control of the two
	// expensive mechanisms.
	Gating bool
	// FilterInterval is the virtual-ns period between process-filter
	// re-evaluations (the paper re-evaluates once per second).
	FilterInterval int64
	// EnableDevProf attaches the device-side (CXL) hot-page tracker,
	// configured by devprof.DefaultConfig, so harvests also carry
	// per-page device counts (the NeoMem arm; see the devprof
	// package). Requires a machine with at least one device-profiled
	// tier.
	EnableDevProf bool
	// QuarantineThreshold is the fault rate (failures over attempts)
	// above which the profiler permanently disables a monitoring
	// mechanism and degrades ranks to the survivors. 0 disables
	// quarantine entirely.
	QuarantineThreshold float64
	// QuarantineMinEvents is the minimum IBS sample-attempt
	// population before its fault rate is judged — small denominators
	// are noise, and quarantine is irreversible.
	QuarantineMinEvents uint64
}

// DefaultConfig returns the paper's production settings at a given IBS
// op period.
func DefaultConfig(ibsPeriod int) Config {
	return Config{
		IBS:                 ibs.DefaultConfig(ibsPeriod),
		Abit:                abit.DefaultConfig(),
		HWPC:                hwpc.DefaultConfig(),
		Gating:              true,
		FilterInterval:      1_000_000_000,
		QuarantineThreshold: 0.5,
		QuarantineMinEvents: 200,
	}
}

// Profiler is the TMP instance bound to one machine.
type Profiler struct {
	cfg     Config
	machine *cpu.Machine

	IBS     *ibs.Engine
	Abit    *abit.Scanner
	Monitor *hwpc.Monitor
	// DevProf is non-nil when Config.EnableDevProf is set.
	DevProf *devprof.Tracker

	usage      UsageFunc
	registered []int // PIDs the daemon was told about
	profiled   []int // PIDs passing the resource filter
	nextFilter int64

	// onSample, when set, observes every delivered trace sample at
	// drain time (experiment harnesses build detection sets and
	// heatmaps with it).
	onSample func(s trace.Sample)

	epoch int
	// kept is HarvestEpoch's scratch: it harvests here and hands out
	// an exact-size copy.
	kept EpochStats

	// Telemetry (nil handles no-op when telemetry is off).
	tel          *telemetry.Tracer
	ctrTicks     *telemetry.Counter
	ctrTickNS    *telemetry.Counter
	ctrProfiled  *telemetry.Counter
	ctrHarvested *telemetry.Counter
}

// SetTracer attaches the telemetry layer to the profiler and all of
// its engines: daemon ticks and filter evaluations emit events here,
// A-bit scans, IBS drains, and HWPC gate decisions in their engines,
// and HarvestEpoch cuts the telemetry epoch. Record-only — the
// profiler behaves identically with telemetry on or off.
func (p *Profiler) SetTracer(t *telemetry.Tracer) {
	p.tel = t
	p.ctrTicks = t.Counter("daemon/ticks")
	p.ctrTickNS = t.Counter("daemon/tick_ns")
	p.ctrProfiled = t.Counter("daemon/profiled_pids")
	p.ctrHarvested = t.Counter("sim/harvested_pages")
	p.IBS.SetTracer(t)
	p.Abit.SetTracer(t)
	p.Monitor.SetTracer(t)
	if p.DevProf != nil {
		p.DevProf.SetTracer(t)
	}
}

// New wires a profiler into a machine. usage may be nil, in which case
// every registered process is profiled (the filter needs usage data).
func New(cfg Config, m *cpu.Machine, usage UsageFunc) (*Profiler, error) {
	eng, err := ibs.New(cfg.IBS, m.Phys)
	if err != nil {
		return nil, err
	}
	sc, err := abit.New(cfg.Abit, m)
	if err != nil {
		return nil, err
	}
	mon, err := hwpc.New(cfg.HWPC, m)
	if err != nil {
		return nil, err
	}
	p := &Profiler{
		cfg:        cfg,
		machine:    m,
		IBS:        eng,
		Abit:       sc,
		Monitor:    mon,
		usage:      usage,
		nextFilter: cfg.FilterInterval,
	}
	// Trace samples accumulate into the page descriptor at drain time
	// (phys_to_page on the sample's physical address, §III-B1).
	eng.SetAccumulator(func(s trace.Sample, pd *mem.PageDescriptor) {
		if pd != nil && pd.Epoch.Trace != ^uint32(0) {
			pd.Epoch.Trace++
		}
		if p.onSample != nil {
			p.onSample(s)
		}
	})
	m.AddObserver(eng)
	if cfg.EnableDevProf {
		tk, err := devprof.New(devprof.DefaultConfig(), m.Phys)
		if err != nil {
			return nil, err
		}
		p.DevProf = tk
		m.AddObserver(tk)
	}
	if cfg.Gating {
		// Trace-based profiling follows LLC misses; A-bit profiling
		// follows TLB misses (§III-A). The device tracker is never
		// gated: observation costs the host nothing, so there is
		// nothing to save by turning it off.
		mon.Gate(pmu.EvLLCMiss, eng)
		mon.Gate(pmu.EvSTLBMiss, sc)
	}
	return p, nil
}

// SetSampleObserver registers a hook that sees every delivered trace
// sample (after page-descriptor accumulation).
func (p *Profiler) SetSampleObserver(fn func(s trace.Sample)) { p.onSample = fn }

// SetFaultPlane attaches the fault-injection plane to every monitoring
// engine the profiler owns. nil (the default) injects nothing.
func (p *Profiler) SetFaultPlane(f *fault.Plane) {
	p.IBS.SetFaultPlane(f)
	p.Abit.SetFaultPlane(f)
	p.Monitor.SetFaultPlane(f)
	if p.DevProf != nil {
		p.DevProf.SetFaultPlane(f)
	}
}

// Register tells the daemon about a program's process (the user adds a
// program; the daemon collects PIDs of everything it forks).
func (p *Profiler) Register(pid int) {
	for _, existing := range p.registered {
		if existing == pid {
			return
		}
	}
	p.registered = append(p.registered, pid)
	p.refilter()
}

// Profiled returns the PIDs currently passing the resource filter.
func (p *Profiler) Profiled() []int { return p.profiled }

// refilter applies the 5% CPU / 10% memory rule.
func (p *Profiler) refilter() {
	p.profiled = p.profiled[:0]
	for _, pid := range p.registered {
		if p.usage == nil {
			p.profiled = append(p.profiled, pid)
			continue
		}
		cpuFrac, memFrac := p.usage(pid)
		if cpuFrac >= cpuFilterMin || memFrac >= memFilterMin {
			p.profiled = append(p.profiled, pid)
		}
	}
}

// Tick drives the daemon at virtual time now: HWPC gating, periodic
// A-bit scans, and process-filter re-evaluation. All incurred cost is
// charged to the daemon core so profiling overhead shows up in
// end-to-end run time.
func (p *Profiler) Tick(now int64) {
	var cost int64
	if p.cfg.Gating {
		c, _ := p.Monitor.TickIfDue(now)
		cost += c
	}
	if res, ran := p.Abit.ScanIfDue(now, p.profiled); ran {
		cost += res.CostNS
	}
	if now >= p.nextFilter {
		for p.nextFilter <= now {
			p.nextFilter += p.cfg.FilterInterval
		}
		p.refilter()
		p.tel.EmitFilter(now, len(p.profiled), len(p.registered))
	}
	if cost > 0 {
		p.machine.Core(daemonCore).AdvanceClock(cost)
		// The tick span is the roll-up of everything the daemon core
		// paid this pass (HWPC read + A-bit scan); the per-mechanism
		// spans emitted by the engines break the same time down.
		p.tel.EmitDaemonTick(now, cost)
		if p.tel.Enabled() {
			p.ctrTicks.Add(1)
			p.ctrTickNS.AddNS(cost)
			p.ctrProfiled.Set(uint64(len(p.profiled)))
		}
	}
}

// EpochStats is the harvest of one epoch.
type EpochStats struct {
	Epoch int
	Pages []PageStat
}

// HarvestEpoch flushes pending trace samples, snapshots every
// allocated page's epoch counters, resets them, and advances the epoch
// index. This is the profiler-policy interface: the policy engine sees
// ranked pages, not monitoring detail. The returned harvest owns its
// backing array, sized to its pages: callers that keep every harvest
// (sim.Run) hold no slack. Callers that drop the harvest every epoch
// should use HarvestEpochInto instead, which recycles one.
func (p *Profiler) HarvestEpoch() EpochStats {
	p.HarvestEpochInto(&p.kept)
	stats := EpochStats{Epoch: p.kept.Epoch}
	if len(p.kept.Pages) > 0 {
		stats.Pages = slices.Clone(p.kept.Pages)
	}
	return stats
}

// HarvestEpochInto is the allocation-free harvest: dst.Pages is
// truncated and refilled in place, so a caller that reuses one
// EpochStats across epochs (the placement loop) pays zero allocations
// per epoch in steady state — pinned by testing.AllocsPerRun. A
// harvest that outgrows dst.Pages grows it in one step to the
// harvest's upper bound, one page per allocated frame, instead of
// through append's steps. The snapshot and the epoch reset happen in
// one pass over the allocated-PFN span. dst must not be retained
// across calls by anything downstream; harvests that are kept
// (sim.Run's Epochs slice) go through HarvestEpoch, which hands out a
// fresh array.
func (p *Profiler) HarvestEpochInto(dst *EpochStats) {
	p.IBS.FlushAt(p.machine.Now())
	if p.DevProf != nil {
		// A faulted flush (overflow/stale) degrades this epoch's device
		// evidence; the tracker's stats carry the loss and quarantine
		// judges it below, so the harvest itself needs no recovery.
		p.DevProf.FlushAt(p.machine.Now()) //nolint:errcheck
	}
	dst.Epoch = p.epoch
	phys := p.machine.Phys
	pages := dst.Pages[:0]
	phys.ForEachAllocated(func(pfn mem.PFN, pd *mem.PageDescriptor) {
		if pd.Epoch == (mem.Evidence{}) {
			return
		}
		if len(pages) == cap(pages) {
			allocated := 0
			for t := 0; t < phys.Tiers(); t++ {
				allocated += phys.UsedFrames(mem.TierID(t))
			}
			pages = slices.Grow(pages, allocated-len(pages))
		}
		pages = append(pages, PageStat{
			Key:      PageKey{PID: int(pd.PID), VPN: pd.VPage},
			Tier:     phys.TierOf(pfn),
			Evidence: pd.Epoch,
		})
		// Resetting here rather than in a second ResetEpochAll pass is
		// safe because the reset is a no-op on pages with no evidence,
		// the ones the harvest skips.
		phys.ResetEpoch(pfn)
	})
	dst.Pages = pages
	p.epoch++
	p.checkQuarantine(p.machine.Now())
	if p.tel.Enabled() {
		p.ctrHarvested.Add(uint64(len(dst.Pages)))
		p.tel.CutEpoch(p.machine.Now(), len(dst.Pages))
	}
}

// checkQuarantine judges each mechanism's fault rate at the epoch
// boundary and permanently disables any whose failures exceed the
// threshold — the profiler would rather run on one clean evidence
// source than blend in a corrupt one. Judged in a fixed order (ibs,
// abit, hwpc, devprof) so a run's quarantine sequence is deterministic.
func (p *Profiler) checkQuarantine(now int64) {
	thr := p.cfg.QuarantineThreshold
	if thr <= 0 {
		return
	}
	if !p.IBS.Quarantined() {
		if lost, attempts := p.IBS.Stats().FaultRate(); attempts >= p.cfg.QuarantineMinEvents && float64(lost) > thr*float64(attempts) {
			p.IBS.Quarantine()
			p.tel.EmitQuarantine(now, "ibs", lost, attempts)
		}
	}
	if !p.Abit.Quarantined() {
		if failures, attempts := p.Abit.Stats().FaultRate(); attempts >= quarantineMinRounds && float64(failures) > thr*float64(attempts) {
			p.Abit.Quarantine()
			p.tel.EmitQuarantine(now, "abit", failures, attempts)
		}
	}
	if !p.Monitor.Quarantined() {
		if failures, attempts := p.Monitor.FaultRate(); attempts >= quarantineMinRounds && float64(failures) > thr*float64(attempts) {
			p.Monitor.Quarantine()
			p.tel.EmitQuarantine(now, "hwpc", failures, attempts)
		}
	}
	if p.DevProf != nil && !p.DevProf.Quarantined() {
		// The device stream is sample-shaped like IBS (per-observation
		// counts, not per-round scans), so it is judged against the
		// event-population floor.
		if lost, attempts := p.DevProf.Stats().FaultRate(); attempts >= p.cfg.QuarantineMinEvents && float64(lost) > thr*float64(attempts) {
			p.DevProf.Quarantine()
			p.tel.EmitQuarantine(now, "devprof", lost, attempts)
		}
	}
}

// EffectiveMethod degrades a requested ranking method to the surviving
// evidence source when quarantine has removed one: tmp falls back to
// the clean arm, and a single-arm method whose mechanism is gone falls
// back to the other. A devprof request on a machine whose tracker is
// quarantined (or was never attached) degrades to the combined host
// rank first, then through the host rules. With every source
// quarantined there is nothing better to offer and the request passes
// through unchanged.
func (p *Profiler) EffectiveMethod(m Method) Method {
	if m == MethodDev && (p.DevProf == nil || p.DevProf.Quarantined()) {
		m = MethodCombined
	}
	ibsOut, abitOut := p.IBS.Quarantined(), p.Abit.Quarantined()
	switch {
	case ibsOut && abitOut:
		return m
	case ibsOut && (m == MethodTrace || m == MethodCombined):
		return MethodAbit
	case abitOut && (m == MethodAbit || m == MethodCombined):
		return MethodTrace
	}
	return m
}

// QuarantinedMechanisms lists the permanently disabled mechanisms in
// fixed (ibs, abit, hwpc, devprof) order, for reports.
func (p *Profiler) QuarantinedMechanisms() []string {
	var out []string
	if p.IBS.Quarantined() {
		out = append(out, "ibs")
	}
	if p.Abit.Quarantined() {
		out = append(out, "abit")
	}
	if p.Monitor.Quarantined() {
		out = append(out, "hwpc")
	}
	if p.DevProf != nil && p.DevProf.Quarantined() {
		out = append(out, "devprof")
	}
	return out
}

// Epoch returns the index of the epoch currently being collected.
func (p *Profiler) Epoch() int { return p.epoch }

// RankedPages sorts a harvest by descending hotness under a method.
// Rank ties are broken in favour of pages already resident in the fast
// tier — A-bit evidence is at most one observation per scan, so large
// tie groups are common, and preferring residents is the hysteresis
// that "eliminates excessive migration" (§II-A); remaining ties order
// deterministically by (PID, VPN). The order is RankLess, the one
// comparator every selector shares. Pages with zero rank under the
// method are excluded — the profiler never saw them. Callers that
// only consume a prefix should use TopK, which produces the same
// prefix without sorting the whole harvest; callers that rank every
// epoch and need only positions should reuse a RankOrder.
func RankedPages(stats EpochStats, m Method) []PageStat {
	var o RankOrder
	order := o.Of(stats, m)
	out := make([]PageStat, len(order))
	for pos, i := range order {
		out[pos] = stats.Pages[i]
	}
	return out
}

// RankOrder is reusable scratch for a harvest's canonical order; the
// zero value is ready to use. A caller that ranks every epoch keeps
// one, and its Of calls allocate nothing once the scratch has grown to
// the harvest.
type RankOrder struct {
	idx  []int32
	keys []packedRank
}

// packedRank is one page's position in the canonical order packed
// into a word, with the page's index in the harvest.
type packedRank struct {
	key uint64
	idx int32
}

// Of returns the indices into stats.Pages of the pages with a nonzero
// rank under m, in RankedPages order: RankedPages(stats, m)[pos] is
// stats.Pages[Of(stats, m)[pos]]. The result aliases o and stays valid
// until the next call.
func (o *RankOrder) Of(stats EpochStats, m Method) []int32 {
	pages := stats.Pages
	if cap(o.idx) < len(pages) {
		o.idx = make([]int32, 0, len(pages))
	}
	o.idx = o.idx[:0]
	var maxRank, maxPID, maxVPN uint64
	negPID := false
	for i := range pages {
		ps := &pages[i]
		r := ps.Rank(m)
		if r == 0 {
			continue
		}
		o.idx = append(o.idx, int32(i))
		if r > maxRank {
			maxRank = r
		}
		if ps.Key.PID < 0 {
			negPID = true
		} else if p := uint64(ps.Key.PID); p > maxPID {
			maxPID = p
		}
		if v := uint64(ps.Key.VPN); v > maxVPN {
			maxVPN = v
		}
	}
	// Sort packed keys, not 40-byte PageStats: a page's position under
	// RankCmp is (rank descending, slow-tier bit, PID, VPN), and when
	// those fields' bit-widths fit one machine word — every realistic
	// harvest — the whole order packs into a single uint64 per page,
	// precomputed once, so the sort pays one integer compare per pair
	// instead of re-deriving Rank() and walking the tie-break chain.
	// Keys are unique (distinct pages), so the packed word alone is a
	// total order and the differential tests (TopK == RankedPages for
	// every method and tie shape) pin the encoding to RankCmp.
	pidBits, vpnBits := bits.Len64(maxPID), bits.Len64(maxVPN)
	if !negPID && bits.Len64(maxRank)+1+pidBits+vpnBits <= 64 {
		if cap(o.keys) < len(o.idx) {
			o.keys = make([]packedRank, 0, len(o.idx))
		}
		o.keys = o.keys[:0]
		for _, i := range o.idx {
			ps := &pages[i]
			k := (maxRank-ps.Rank(m))<<(1+pidBits+vpnBits) |
				uint64(ps.Key.PID)<<vpnBits |
				uint64(ps.Key.VPN)
			if ps.Tier != mem.FastTier {
				k |= 1 << (pidBits + vpnBits)
			}
			o.keys = append(o.keys, packedRank{key: k, idx: i})
		}
		slices.SortFunc(o.keys, func(a, b packedRank) int { return cmp.Compare(a.key, b.key) })
		for pos := range o.keys {
			o.idx[pos] = o.keys[pos].idx
		}
		return o.idx
	}
	// Degenerate field ranges (wild VPNs, negative PIDs): comparator
	// sort on the canonical order directly.
	slices.SortFunc(o.idx, func(a, b int32) int { return statCmp(&pages[a], &pages[b], m) })
	return o.idx
}

// SumEpochs merges per-epoch harvests into one cumulative harvest:
// counters add per page, the latest observed tier wins, and the merged
// pages come out in canonical (PID, VPN) order. This is the sanctioned
// way to aggregate PageStat counters outside the profiler arms — the
// tmplint epochaccount analyzer rejects open-coded counter writes.
// Accumulation is dense: each distinct page interns to a uint32 id
// once (pageidx) and every later observation is a slice-indexed add,
// instead of the map[PageKey]PageStat copy-out/copy-in per
// observation the merge used to make.
func SumEpochs(epochs []EpochStats) EpochStats {
	// Size for the distinct-page count, which is at least the largest
	// single epoch — NOT the sum of epoch sizes: consecutive harvests
	// mostly re-observe the same working set, and a sum-sized map
	// would allocate (and fault in) an order of magnitude more buckets
	// than ever fill.
	hint := 0
	for _, ep := range epochs {
		if len(ep.Pages) > hint {
			hint = len(ep.Pages)
		}
	}
	tab := pageidx.New(hint, PageKeyHash)
	acc := make([]PageStat, 0, hint)
	for _, ep := range epochs {
		for i := range ep.Pages {
			ps := &ep.Pages[i]
			id := tab.Intern(ps.Key)
			if int(id) == len(acc) {
				acc = append(acc, PageStat{Key: ps.Key})
			}
			t := &acc[id]
			t.Tier = ps.Tier // last placement wins
			t.Add(ps.Evidence)
		}
	}
	// Ids are first-seen order; one sort pins the canonical output.
	slices.SortFunc(acc, func(a, b PageStat) int { return PageKeyCmp(a.Key, b.Key) })
	return EpochStats{Pages: acc}
}

// AttachTruth merges the machine's per-page ground truth into a
// harvest: observed pages get their True counts (and current tier),
// and memory-accessed pages the profiler missed are appended in
// ascending-PFN order — hitrate denominators need them. Harvests from
// profilers that bypass the TMP daemon (AutoNUMA, BadgerTrap
// baselines) call this before evaluation.
func AttachTruth(phys *mem.PhysMem, ep *EpochStats) {
	// The observed pages intern in slice order, so an id doubles as
	// the page's index into ep.Pages.
	tab := pageidx.New(len(ep.Pages), PageKeyHash)
	for i := range ep.Pages {
		tab.Intern(ep.Pages[i].Key)
	}
	observed := len(ep.Pages)
	phys.ForEachAllocated(func(pfn mem.PFN, pd *mem.PageDescriptor) {
		key := PageKey{PID: int(pd.PID), VPN: pd.VPage}
		if id, ok := tab.Lookup(key); ok && int(id) < observed {
			ep.Pages[id].True = pd.Epoch.True
			ep.Pages[id].Tier = phys.TierOf(pfn)
			return
		}
		if pd.Epoch.True > 0 {
			ep.Pages = append(ep.Pages, PageStat{
				Key:      key,
				Tier:     phys.TierOf(pfn),
				Evidence: mem.Evidence{True: pd.Epoch.True},
			})
		}
	})
}

// OverheadNS returns total profiling overhead charged so far, split by
// mechanism.
func (p *Profiler) OverheadNS() (ibsNS, abitNS, hwpcNS int64) {
	return p.IBS.Stats().OverheadNS, p.Abit.Stats().OverheadNS, p.Monitor.OverheadNS
}
