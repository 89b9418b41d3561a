// Package fault is the simulator's deterministic fault-injection
// plane. The paper's whole argument is that profiling mechanisms are
// individually unreliable — IBS samples get dropped, A-bit walks race
// with the workload, counters overflow, migrations fail under pressure
// — and that a profiler must degrade gracefully when they do. This
// package supplies the unreliability on demand: a Plane carries one
// independent, seed-derived random stream per injection site, and the
// hardware/OS layers (ibs, abit, hwpc, mem, policy) consult it at
// well-defined decision points.
//
// Two contracts govern the plane, mirroring the telemetry layer's:
//
//  1. Determinism. Same seed + same Spec ⇒ the same decision sequence
//     at every site, so a faulted run is byte-reproducible. Each site
//     owns a private splitmix64 stream derived from (seed, site), so
//     one mechanism's draw count never perturbs another's decisions.
//     The tmplint faultrand analyzer keeps math/rand, crypto/rand, and
//     wall-clock out of this package.
//
//  2. Inertness at rate zero. A nil *Plane and a Plane built from a
//     zero Spec are behaviourally identical to no plane at all: every
//     decision method on either returns false without drawing, so a
//     zero-rate run is byte-identical to an unfaulted one
//     (machine-checked by TestFaultPlaneInert).
//
// The plane decides; it never acts. Injection sites own the failure
// semantics (what a dropped sample or a failed AllocIn means), and the
// response machinery — the mover's retry queue, the profiler's
// quarantine — reacts to those failures exactly as it would to organic
// ones. See ROBUSTNESS.md for the spec grammar and the full site list.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tieredmem/internal/telemetry"
)

// Site identifies one injection point. Every site draws from its own
// seed-derived stream and counts its own injections.
type Site uint8

const (
	// SiteIBSDrop drops one delivered trace sample before it reaches
	// the ring (a lost IBS/PEBS record).
	SiteIBSDrop Site = iota
	// SiteIBSOverflow loses an entire drain batch (the interrupt
	// handler found the buffer overwritten).
	SiteIBSOverflow
	// SiteAbitAbort aborts an A-bit page-table walk partway through
	// (the walk raced with the workload and bailed).
	SiteAbitAbort
	// SiteHWPCWrap wraps a performance counter between two window
	// reads, making the observed value go backwards.
	SiteHWPCWrap
	// SiteENOMEM fails one AllocIn call with mem.ErrTierFull even
	// though frames are free (transient allocation pressure).
	SiteENOMEM
	// SitePinned fails one migration with mem.ErrPinned (the page is
	// transiently pinned, the EBUSY case).
	SitePinned
	// SiteSplitFail fails one THP split during migration.
	SiteSplitFail
	// SiteDevOverflow overflows the device tracker's bounded counter
	// table during a flush: the staged batch of device observations is
	// lost (the NeoMem hot-page queue wrapped before the host read it).
	SiteDevOverflow
	// SiteDevStale makes one device-tracker flush return stale data:
	// nothing is delivered this epoch and the counts carry over (the
	// host read raced the device's internal aggregation window).
	SiteDevStale
	// SiteCopyAbort dirties a page mid-copy during a transactional
	// migration: the verify-clean phase sees the write and the
	// transaction aborts with mem.ErrCopyAborted (consulted by
	// policy.Mover per transactional copy).
	SiteCopyAbort
	// SiteShadowStale invalidates a slow-tier shadow copy at the moment
	// a re-demotion tries to reuse it: the remap-only fast path is
	// abandoned and the demotion pays the full copy (consulted by
	// policy.Mover per shadow-hit attempt).
	SiteShadowStale

	numSites
)

// String names the site as used in counters and the spec grammar.
func (s Site) String() string {
	switch s {
	case SiteIBSDrop:
		return "ibs.drop"
	case SiteIBSOverflow:
		return "ibs.overflow"
	case SiteAbitAbort:
		return "abit.abort"
	case SiteHWPCWrap:
		return "hwpc.wrap"
	case SiteENOMEM:
		return "mem.enomem"
	case SitePinned:
		return "mem.pinned"
	case SiteSplitFail:
		return "mem.splitfail"
	case SiteDevOverflow:
		return "devprof.overflow"
	case SiteDevStale:
		return "devprof.stale"
	case SiteCopyAbort:
		return "mem.copyabort"
	case SiteShadowStale:
		return "mem.shadowstale"
	default:
		return "site?"
	}
}

// counterName maps a site to its telemetry counter.
func (s Site) counterName() string {
	switch s {
	case SiteIBSDrop:
		return "fault/ibs_drop"
	case SiteIBSOverflow:
		return "fault/ibs_overflow"
	case SiteAbitAbort:
		return "fault/abit_abort"
	case SiteHWPCWrap:
		return "fault/hwpc_wrap"
	case SiteENOMEM:
		return "fault/mem_enomem"
	case SitePinned:
		return "fault/mem_pinned"
	case SiteSplitFail:
		return "fault/mem_splitfail"
	case SiteDevOverflow:
		return "fault/devprof_overflow"
	case SiteDevStale:
		return "fault/devprof_stale"
	case SiteCopyAbort:
		return "fault/mem_copyabort"
	case SiteShadowStale:
		return "fault/mem_shadowstale"
	default:
		return "fault/unknown"
	}
}

// Spec is one fault configuration: a probability in [0,1] per site.
// The zero value injects nothing.
type Spec struct {
	// Rates holds the per-site injection probability, indexed by Site.
	Rates [numSites]float64
}

// Zero reports whether the spec injects nothing.
func (s Spec) Zero() bool {
	for _, r := range s.Rates {
		if r != 0 {
			return false
		}
	}
	return true
}

// Validate reports out-of-range rates. NaN is out of range: it fails
// every comparison, so a NaN-rate site would fire on every draw.
func (s Spec) Validate() error {
	for site, r := range s.Rates {
		if !(r >= 0 && r <= 1) {
			return fmt.Errorf("fault: %s rate %v outside [0,1]", Site(site), r)
		}
	}
	return nil
}

// String renders the spec in canonical grammar form (sites in Site
// order, zero rates omitted); ParseSpec(s.String()) round-trips.
func (s Spec) String() string {
	var parts []string
	for site, r := range s.Rates {
		if r != 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", Site(site), r))
		}
	}
	return strings.Join(parts, ",")
}

// specSites maps grammar keys to sites, built once from Site.String.
var specSites = func() map[string]Site {
	m := make(map[string]Site, numSites)
	for s := Site(0); s < numSites; s++ {
		m[s.String()] = s
	}
	return m
}()

// ParseSpec parses the -faults grammar: a comma-separated list of
// site=rate pairs, e.g. "ibs.drop=0.05,mem.enomem=0.2,abit.abort=0.1".
// Sites are the Site.String names; rates are floats in [0,1]. The
// shorthand "all=R" sets every site to R. An empty string is the zero
// spec. Repeated keys: last one wins.
func ParseSpec(text string) (Spec, error) {
	var spec Spec
	text = strings.TrimSpace(text)
	if text == "" {
		return spec, nil
	}
	for _, field := range strings.Split(text, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("fault: bad spec field %q (want site=rate)", field)
		}
		key = strings.TrimSpace(key)
		rate, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return Spec{}, fmt.Errorf("fault: bad rate in %q: %v", field, err)
		}
		if !(rate >= 0 && rate <= 1) { // NaN fails both comparisons
			return Spec{}, fmt.Errorf("fault: rate in %q outside [0,1]", field)
		}
		if key == "all" {
			for s := range spec.Rates {
				spec.Rates[s] = rate
			}
			continue
		}
		site, ok := specSites[key]
		if !ok {
			known := make([]string, 0, numSites)
			for name := range specSites {
				known = append(known, name)
			}
			sort.Strings(known)
			return Spec{}, fmt.Errorf("fault: unknown site %q (known: %s, all)", key, strings.Join(known, ", "))
		}
		spec.Rates[site] = rate
	}
	return spec, nil
}

// Plane is one run's fault-injection state. A nil *Plane is the
// disabled state: every decision method returns false at the cost of
// one pointer test, so injection sites are wired unconditionally. A
// Plane belongs to exactly one simulation run (like a
// telemetry.Tracer) and is not safe for concurrent use — parallel
// experiment cells each build a private plane from the same spec and
// seed, which is what makes -parallel 1 and -parallel 8 byte-identical.
type Plane struct {
	spec     Spec
	rng      [numSites]uint64
	injected [numSites]uint64
	draws    [numSites]uint64

	// Telemetry counters; nil (free no-ops) when telemetry is off.
	ctr [numSites]*telemetry.Counter
}

// New derives a plane from a spec and the run's seed. Each site's
// stream is splitmix64-seeded from (seed, site), so sites draw
// independently: adding a new injection site, or one mechanism drawing
// more often, never shifts another site's decision sequence.
func New(spec Spec, seed int64) *Plane {
	p := &Plane{spec: spec}
	for s := range p.rng {
		// Distinct nonzero state per site even for seed 0.
		p.rng[s] = splitmix64(uint64(seed) ^ (0xA076_1D64_78BD_642F * uint64(s+1)))
	}
	return p
}

// SetTracer attaches per-site injection counters (fault/*). Counting
// only — decisions are unaffected, and the counters are bumped at
// decision time so they need no sync pass.
func (p *Plane) SetTracer(t *telemetry.Tracer) {
	if p == nil {
		return
	}
	for s := Site(0); s < numSites; s++ {
		p.ctr[s] = t.Counter(s.counterName())
	}
}

// Enabled reports whether the plane can inject anything.
func (p *Plane) Enabled() bool { return p != nil && !p.spec.Zero() }

// Spec returns the plane's configuration (zero for nil).
func (p *Plane) Spec() Spec {
	if p == nil {
		return Spec{}
	}
	return p.spec
}

// Injected returns how many times a site has fired.
func (p *Plane) Injected(s Site) uint64 {
	if p == nil {
		return 0
	}
	return p.injected[s]
}

// Draws returns how many decisions a site has made (fired or not).
func (p *Plane) Draws(s Site) uint64 {
	if p == nil {
		return 0
	}
	return p.draws[s]
}

// Sites lists every injection site in fixed order, for attribution
// reports that walk the plane's counters.
func Sites() []Site {
	out := make([]Site, numSites)
	for s := range out {
		out[s] = Site(s)
	}
	return out
}

// TotalInjected sums injections across all sites.
func (p *Plane) TotalInjected() uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	for _, v := range p.injected {
		n += v
	}
	return n
}

// splitmix64 is the SplitMix64 state transition + output finalizer;
// the plane's only randomness. Package-local on purpose: math/rand's
// generators are banned here (tmplint faultrand) so the stream can
// never drift across Go releases.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// decide draws one uniform in [0,1) from the site's stream and fires
// with the site's configured probability. Zero-rate sites return
// false without touching the stream, which is what makes a zero-rate
// plane byte-identical to a nil one.
func (p *Plane) decide(s Site) bool {
	if p == nil {
		return false
	}
	rate := p.spec.Rates[s]
	if rate <= 0 {
		return false
	}
	p.draws[s]++
	p.rng[s] = splitmix64(p.rng[s])
	u := float64(p.rng[s]>>11) / (1 << 53)
	if u >= rate {
		return false
	}
	p.injected[s]++
	p.ctr[s].Add(1)
	return true
}

// uniform draws one extra uniform in [0,1) from a site's stream, for
// sites whose injections carry a magnitude (how far into the walk the
// abort lands). Only called after decide(s) fired, so zero-rate
// streams stay untouched.
func (p *Plane) uniform(s Site) float64 {
	p.rng[s] = splitmix64(p.rng[s])
	return float64(p.rng[s]>>11) / (1 << 53)
}

// DropIBSSample reports whether to drop the sample about to be
// delivered (consulted by ibs.Engine per delivered sample).
func (p *Plane) DropIBSSample() bool { return p.decide(SiteIBSDrop) }

// OverflowIBSDrain reports whether the drain batch about to be
// processed was lost to a buffer overflow (consulted per drain with a
// non-empty batch).
func (p *Plane) OverflowIBSDrain() bool { return p.decide(SiteIBSOverflow) }

// AbortAbitScan reports whether the A-bit walk starting now aborts
// partway; when it does, frac in (0,1) is the fraction of the walk
// completed before the abort.
func (p *Plane) AbortAbitScan() (frac float64, abort bool) {
	if !p.decide(SiteAbitAbort) {
		return 0, false
	}
	return p.uniform(SiteAbitAbort), true
}

// WrapHWPC reports whether a performance-counter read observes a
// wrapped value (consulted per gauge per window).
func (p *Plane) WrapHWPC() bool { return p.decide(SiteHWPCWrap) }

// FailAllocIn reports whether an AllocIn call fails with transient
// tier-full pressure (consulted by mem.PhysMem.AllocIn).
func (p *Plane) FailAllocIn() bool { return p.decide(SiteENOMEM) }

// PinPage reports whether the page about to migrate is transiently
// pinned (the EBUSY case; consulted by policy.Mover per migration).
func (p *Plane) PinPage() bool { return p.decide(SitePinned) }

// FailSplit reports whether a THP split fails (consulted by
// policy.Mover before splitting a huge mapping).
func (p *Plane) FailSplit() bool { return p.decide(SiteSplitFail) }

// OverflowDevCounters reports whether the device tracker's bounded
// counter table overflowed before this flush, losing the staged batch
// (consulted by devprof.Tracker per flush with staged observations).
func (p *Plane) OverflowDevCounters() bool { return p.decide(SiteDevOverflow) }

// StaleDevFlush reports whether this device-tracker flush reads stale
// data — nothing delivered, counts carried to the next flush
// (consulted by devprof.Tracker per flush with staged observations).
func (p *Plane) StaleDevFlush() bool { return p.decide(SiteDevStale) }

// DirtyCopy reports whether the page being copied by a transactional
// migration was written mid-copy, forcing the transaction to abort
// (consulted by policy.Mover at the verify-clean phase, once per
// transactional copy).
func (p *Plane) DirtyCopy() bool { return p.decide(SiteCopyAbort) }

// StaleShadow reports whether the shadow copy a re-demotion is about
// to reuse went stale under it (consulted by policy.Mover once per
// shadow-hit attempt; legacy, non-transactional migrations never
// consult it).
func (p *Plane) StaleShadow() bool { return p.decide(SiteShadowStale) }
