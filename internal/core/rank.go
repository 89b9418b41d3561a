package core

// The ranking spine: one deterministic comparator (RankLess) shared
// by every selector in the repo, bounded top-K selection so policies
// stop paying for full sorts of harvests they truncate anyway, and
// the dense Ranks table the page mover reads (built lazily, only when
// the mover must pick demotion victims). Keeping all rank
// comparisons in this file is a determinism guarantee, not a style
// choice: four packages used to hand-copy the tie-break and a drift
// in any copy would have silently diverged selections (the
// same-seed-same-ranks contract tmplint enforces assumes they agree).

import (
	"sort"

	"tieredmem/internal/core/pageidx"
	"tieredmem/internal/mem"
)

// RankCmp is the canonical hotness order every selector uses, as a
// three-way comparison: rank descending, then fast-tier residents
// first (the hysteresis that "eliminates excessive migration", §II-A —
// A-bit evidence is at most one observation per scan, so large tie
// groups are common), then (PID, VPN) ascending. Scores are float64 so
// the float-scored policies (Decay, WriteBiased) share the
// same comparator as the integer ranks, which stay exact well below
// 2^53. The order is total whenever keys are distinct, which is what
// makes bounded selection (TopK) reproduce a full sort exactly.
func RankCmp(ra, rb float64, fastA, fastB bool, ka, kb PageKey) int {
	if ra != rb {
		if ra > rb {
			return -1
		}
		return 1
	}
	if fastA != fastB {
		if fastA {
			return -1
		}
		return 1
	}
	if ka.PID != kb.PID {
		if ka.PID < kb.PID {
			return -1
		}
		return 1
	}
	if ka.VPN != kb.VPN {
		if ka.VPN < kb.VPN {
			return -1
		}
		return 1
	}
	return 0
}

// RankLess is RankCmp as a less-function, for heap and sort.Slice
// call sites.
func RankLess(ra, rb float64, fastA, fastB bool, ka, kb PageKey) bool {
	return RankCmp(ra, rb, fastA, fastB, ka, kb) < 0
}

// ColdestLess orders coldest-first with the same canonical (PID, VPN)
// tie-break; the mover demotes in this order. Implemented as RankLess
// with the ranks swapped so the two orders can never drift.
func ColdestLess(ra, rb uint64, ka, kb PageKey) bool {
	return RankLess(float64(rb), float64(ra), false, false, ka, kb)
}

// statCmp applies RankCmp to two PageStats under a method.
func statCmp(a, b *PageStat, m Method) int {
	return RankCmp(float64(a.Rank(m)), float64(b.Rank(m)),
		a.Tier == mem.FastTier, b.Tier == mem.FastTier, a.Key, b.Key)
}

// statLess applies RankLess to two PageStats under a method.
func statLess(a, b *PageStat, m Method) bool { return statCmp(a, b, m) < 0 }

// TopKFunc returns the k best elements of s under less in sorted
// order — element-for-element identical to sorting all of s by less
// and truncating to k — without the full O(n log n) sort: a bounded
// max-heap holds the k best seen (its root the worst of them), and
// only those k are sorted at the end. less must be a total order over
// the elements (RankLess is, via the (PID, VPN) tie-break); otherwise
// the survivor set would depend on input order. s is permuted in
// place and the result aliases its prefix. k >= len(s) degrades to
// the full sort.
func TopKFunc[T any](s []T, k int, less func(a, b T) bool) []T {
	if k >= len(s) {
		sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
		return s
	}
	if k <= 0 {
		return s[:0]
	}
	h := s[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i, less)
	}
	for i := k; i < len(s); i++ {
		if less(s[i], h[0]) {
			h[0] = s[i]
			siftDown(h, 0, less)
		}
	}
	sort.Slice(h, func(i, j int) bool { return less(h[i], h[j]) })
	return h
}

// siftDown restores the max-heap property (every parent not-less than
// its children under less) below index i.
func siftDown[T any](h []T, i int, less func(a, b T) bool) {
	for {
		big := i
		if l := 2*i + 1; l < len(h) && less(h[big], h[l]) {
			big = l
		}
		if r := 2*i + 2; r < len(h) && less(h[big], h[r]) {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// TopK returns the k hottest pages of a harvest under a method —
// exactly RankedPages(stats, m) truncated to k, proven by the
// differential tests — while allocating and sorting only k entries.
// Pages with zero rank under the method are excluded, as in
// RankedPages. It is TopKSet followed by a sort of the survivors.
func TopK(stats EpochStats, m Method, k int) []PageStat {
	h := TopKSet(stats, m, k)
	sort.Slice(h, func(i, j int) bool { return statLess(&h[i], &h[j], m) })
	return h
}

// TopKSet returns the same k pages as TopK, in heap order instead of
// sorted: a bounded max-heap keeps the k best pages seen (its root the
// worst of them) and the O(k log k) final sort is skipped. Which pages
// survive depends only on RankCmp, a total order over distinct keys, so
// the set never depends on input order. Policies call it with their
// capacity, because a selection is a set and its order never mattered.
func TopKSet(stats EpochStats, m Method, k int) []PageStat {
	if k <= 0 {
		return nil
	}
	less := func(a, b PageStat) bool { return statLess(&a, &b, m) }
	h := make([]PageStat, 0, min(k, len(stats.Pages)))
	heaped := false
	for i := range stats.Pages {
		ps := &stats.Pages[i]
		if ps.Rank(m) == 0 {
			continue
		}
		if len(h) < k {
			h = append(h, *ps)
			continue
		}
		if !heaped {
			for j := len(h)/2 - 1; j >= 0; j-- {
				siftDown(h, j, less)
			}
			heaped = true
		}
		if statLess(ps, &h[0], m) {
			h[0] = *ps
			siftDown(h, 0, less)
		}
	}
	return h
}

// Ranks is a harvest's hotness table under one method: a dense rank
// column indexed by interned page id. It replaces the per-epoch
// map[PageKey]uint64 the mover used to rebuild; the zero value is a
// valid empty table (every lookup reports rank 0, i.e. coldest).
//
// A table from RanksOf is lazy: it interns its harvest on the first Get
// or Len, so an epoch whose mover demotes nothing never pays for it.
// Copies of a Ranks share that one build. A Ranks is not safe for
// concurrent use before its first lookup.
type Ranks struct {
	t *rankTable
}

// rankTable is the state behind a Ranks. harvest holds the pages still
// to intern; tab is nil until they are.
type rankTable struct {
	harvest []PageStat
	method  Method
	tab     *pageidx.Table[PageKey]
	ranks   []uint64
}

// built returns the table, interning a pending harvest first; nil for
// the zero Ranks.
func (r Ranks) built() *rankTable {
	t := r.t
	if t != nil && t.tab == nil {
		t.tab = pageidx.New(len(t.harvest), PageKeyHash)
		t.ranks = make([]uint64, 0, len(t.harvest))
		for i := range t.harvest {
			if rk := t.harvest[i].Rank(t.method); rk > 0 {
				id := t.tab.Intern(t.harvest[i].Key)
				if int(id) == len(t.ranks) {
					t.ranks = append(t.ranks, rk)
				} else {
					t.ranks[id] = rk // duplicate key in a crafted harvest: last wins
				}
			}
		}
		t.harvest = nil
	}
	return t
}

// Get returns the page's rank, 0 when the profiler never saw it —
// the map-compatible lookup policy.Mover demotes coldest-first with.
func (r Ranks) Get(k PageKey) uint64 {
	t := r.built()
	if t == nil {
		return 0
	}
	if id, ok := t.tab.Lookup(k); ok {
		return t.ranks[id]
	}
	return 0
}

// Len returns the number of pages with a nonzero rank.
func (r Ranks) Len() int {
	if t := r.built(); t != nil {
		return len(t.ranks)
	}
	return 0
}

// RanksFromMap builds a Ranks table from explicit per-page ranks — a
// convenience for tests and callers that assemble hotness by hand.
func RanksFromMap(m map[PageKey]uint64) Ranks {
	tab := pageidx.New(len(m), PageKeyHash)
	ranks := make([]uint64, 0, len(m))
	//tmplint:ordered id assignment order never affects Get lookups
	for k, v := range m {
		tab.Intern(k)
		ranks = append(ranks, v)
	}
	return Ranks{t: &rankTable{tab: tab, ranks: ranks}}
}

// RanksOf returns the hotness table for a harvest under a method; the
// page mover uses it to demote coldest-first. Construction is O(1): the
// table interns the harvest on its first Get or Len. Until then it
// aliases stats.Pages, so it stays valid only until that backing array
// is reused — the next HarvestEpochInto into the same EpochStats. Both
// callers, sim.RunPlacement and the benchmark's replay, build it and
// hand it to Mover.ApplySelection within the same epoch.
func RanksOf(stats EpochStats, m Method) Ranks {
	return Ranks{t: &rankTable{harvest: stats.Pages, method: m}}
}
