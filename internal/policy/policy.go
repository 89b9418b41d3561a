// Package policy implements the tiered-memory placement policies of
// the paper's §IV step 2 (Table II): the predictive Oracle upper bound
// and the practical History policy, plus an EWMA-decayed extension.
// The first-come-first-allocate baseline the end-to-end evaluation
// compares against is a placement run with no policy at all
// (sim.PlacementConfig.Policy == nil). Policies are epoch-based: pages
// move in batch at epoch horizons so one TLB shootdown covers every
// migration.
//
// The package also provides the offline hitrate evaluator behind
// Fig. 6 (policies computed over profiling data, hitrate measured
// against ground truth) and the live page mover used by the
// end-to-end emulation (§IV step 3).
package policy

import (
	"fmt"

	"tieredmem/internal/core"
	"tieredmem/internal/core/pageidx"
)

// Selection is the set of pages a policy placed in tier 1 for an
// epoch.
type Selection map[core.PageKey]struct{}

// Policy chooses tier-1 residents at each epoch horizon.
type Policy interface {
	Name() string
	// Select returns the pages to hold in tier 1 during the epoch
	// that starts now. prev is the harvest of the epoch that just
	// ended; next is the harvest of the coming epoch (only the
	// Oracle may look at it — it "assumes knowledge of how many
	// times each page will be accessed in the coming epoch").
	// capacity is the tier-1 size in pages; method selects which
	// profiling evidence ranks pages.
	Select(prev, next core.EpochStats, method core.Method, capacity int) Selection
}

// selScratch is the reusable state behind a Selection: the top-K heap
// buffer and the set takeTop refills from it.
type selScratch struct {
	top []core.PageStat
	sel Selection
}

// takeTop picks the top-capacity pages of a harvest under a method.
// Selection is bounded: core.TopKSet heaps out the capacity hottest
// pages (the order core.RankLess pins) instead of sorting the whole
// harvest to throw most of it away, and leaves them unsorted because a
// Selection is a set. With scratch the heap buffer and the set are
// cleared and refilled, so the returned Selection is valid only until
// the next call; nil scratch means fresh scratch, a new set per call.
func takeTop(s *selScratch, stats core.EpochStats, method core.Method, capacity int) Selection {
	if s == nil {
		s = new(selScratch)
	}
	s.top = core.TopKSet(s.top, stats, method, capacity)
	if s.sel == nil {
		s.sel = make(Selection, len(s.top))
	} else {
		clear(s.sel)
	}
	for i := range s.top {
		s.sel[s.top[i].Key] = struct{}{}
	}
	return s.sel
}

// Reusable returns p with selection scratch of its own when p is an
// Oracle or a History: its Select then refills one set in place, and
// each Selection it returns is valid only until its next Select. A
// caller that drops every selection after applying it (the placement
// loop, once per run) uses it; the zero values keep returning a fresh
// set per call, which callers that keep the previous selection
// (EvaluateHitrate) rely on. Other policies are returned unchanged.
func Reusable(p Policy) Policy {
	switch p.(type) {
	case Oracle:
		return Oracle{s: new(selScratch)}
	case History:
		return History{s: new(selScratch)}
	}
	return p
}

// Oracle brings the coming epoch's hottest pages (as the chosen
// profiling method will observe them) into tier 1 at the start of the
// epoch — the upper limit for policy design.
type Oracle struct{ s *selScratch }

// Name implements Policy.
func (Oracle) Name() string { return "oracle" }

// Select implements Policy.
func (o Oracle) Select(prev, next core.EpochStats, method core.Method, capacity int) Selection {
	return takeTop(o.s, next, method, capacity)
}

// History brings the previous epoch's hottest pages into tier 1: the
// simple yet practical reactive policy.
type History struct{ s *selScratch }

// Name implements Policy.
func (History) Name() string { return "history" }

// Select implements Policy.
func (h History) Select(prev, next core.EpochStats, method core.Method, capacity int) Selection {
	return takeTop(h.s, prev, method, capacity)
}

// Decay is an extension policy (not in the paper's Table II, listed in
// DESIGN.md as an ablation): it ranks pages by an exponentially
// weighted moving average of their per-epoch rank, smoothing the
// reactive History policy against Monte-Carlo access noise.
//
// Per-page state is a dense score column over pageidx interned ids
// (the densemap contract): a zero score is indistinguishable from an
// untracked page, exactly as a missing map key was, so dropping a page
// is writing 0 and the column never needs compaction.
type Decay struct {
	// Alpha in (0,1]: weight of the newest epoch. Alpha=1 degrades
	// to History.
	Alpha  float64
	tab    *pageidx.Table[core.PageKey]
	scores []float64
	seen   []uint32 // epoch stamp: seen[id] == epoch means present this epoch
	epoch  uint32
}

// NewDecay builds the EWMA policy.
func NewDecay(alpha float64) *Decay {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	return &Decay{Alpha: alpha, tab: pageidx.New(0, core.PageKeyHash)}
}

// Name implements Policy.
func (d *Decay) Name() string { return fmt.Sprintf("decay(%.2f)", d.Alpha) }

// intern returns the page's dense id, growing the columns with it.
func (d *Decay) intern(k core.PageKey) uint32 {
	id := d.tab.Intern(k)
	for int(id) >= len(d.scores) {
		d.scores = append(d.scores, 0)
		d.seen = append(d.seen, 0)
	}
	return id
}

// Select implements Policy.
func (d *Decay) Select(prev, next core.EpochStats, method core.Method, capacity int) Selection {
	d.epoch++
	for _, ps := range prev.Pages {
		id := d.intern(ps.Key)
		d.seen[id] = d.epoch
		d.scores[id] = d.scores[id]*(1-d.Alpha) + float64(ps.Rank(method))*d.Alpha
	}
	// Pages absent this epoch decay toward zero; below the floor the
	// score snaps to 0, which is the untracked state.
	for id := range d.scores {
		if d.seen[id] == d.epoch {
			continue
		}
		v := d.scores[id] * (1 - d.Alpha)
		if v < 1e-6 {
			v = 0
		}
		d.scores[id] = v
	}
	type kv struct {
		k core.PageKey
		v float64
	}
	ranked := make([]kv, 0, len(d.scores))
	for id := range d.scores {
		if v := d.scores[id]; v > 0 {
			ranked = append(ranked, kv{d.tab.Key(uint32(id)), v})
		}
	}
	ranked = core.TopKFunc(ranked, capacity, func(a, b kv) bool {
		return core.RankLess(a.v, b.v, false, false, a.k, b.k)
	})
	sel := make(Selection, len(ranked))
	for _, e := range ranked {
		sel[e.k] = struct{}{}
	}
	return sel
}
