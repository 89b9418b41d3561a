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
	"slices"

	"tieredmem/internal/core/pageidx"
	"tieredmem/internal/mem"
)

// RankCmp is the canonical hotness order every selector uses, as a
// three-way comparison: rank descending, then fast-tier residents
// first (the hysteresis that "eliminates excessive migration", §II-A —
// A-bit evidence is at most one observation per scan, so large tie
// groups are common), then (PID, VPN) ascending. Scores are float64 so
// the float-scored policy (Decay) shares the same comparator as the
// integer ranks, which stay exact well below 2^53. The order is total whenever keys are distinct, which is what
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
	if k <= 0 {
		return s[:0]
	}
	// Keeping into s's own prefix is safe: the heap never holds more
	// elements than have been read, so it only overwrites read slots.
	h := s[:0]
	for i := range s {
		h = keepBest(h, k, s[i], less)
	}
	slices.SortFunc(h, func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	return h
}

// keepBest offers x to h, the best (at most k) elements offered so
// far, and returns h. It is the one bounded top-K heap: h fills to k
// in arrival order, becomes a max-heap under less at k (its root the
// worst kept), and from then on x replaces the root only when it is
// better. Which elements survive depends only on less, so a total
// order keeps the same set whatever the arrival order.
func keepBest[T any](h []T, k int, x T, less func(a, b T) bool) []T {
	if len(h) < k {
		h = append(h, x)
		if len(h) == k {
			for i := k/2 - 1; i >= 0; i-- {
				siftDown(h, i, less)
			}
		}
		return h
	}
	if less(x, h[0]) {
		h[0] = x
		siftDown(h, 0, less)
	}
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
	h := TopKSet(nil, stats, m, k)
	slices.SortFunc(h, func(a, b PageStat) int { return statCmp(&a, &b, m) })
	return h
}

// TopKSet returns the same k pages as TopK, in heap order instead of
// sorted, in dst's backing array (truncated first, and grown before
// the scan when it cannot hold min(k, len(stats.Pages))): keepBest's
// bounded max-heap keeps the k best pages seen and the O(k log k)
// final sort is skipped. Which pages survive depends only on RankCmp,
// a total order over distinct keys, so the set never depends on input
// order. Policies call it with their capacity and a reused dst,
// because a selection is a set and its order never mattered.
func TopKSet(dst []PageStat, stats EpochStats, m Method, k int) []PageStat {
	if k <= 0 {
		return dst[:0]
	}
	h := slices.Grow(dst[:0], min(k, len(stats.Pages)))
	less := func(a, b PageStat) bool { return statLess(&a, &b, m) }
	for i := range stats.Pages {
		ps := &stats.Pages[i]
		// Most pages of a large harvest lose to a full heap's root;
		// rejecting them here spares the copy into keepBest.
		if ps.Rank(m) == 0 || len(h) == k && !statLess(ps, &h[0], m) {
			continue
		}
		h = keepBest(h, k, *ps, less)
	}
	return h
}

// Ranks is a harvest's hotness table under one method: a dense rank
// column indexed by interned page id. It replaces the per-epoch
// map[PageKey]uint64 the mover used to rebuild; the zero value is a
// valid empty table (every lookup reports rank 0, i.e. coldest).
//
// A table from RankTable.Of or RanksOf is lazy: it interns its harvest
// on the first Get or Len, so an epoch whose mover demotes nothing
// never pays for it. Copies of a Ranks share that one build. A Ranks
// is not safe for concurrent use before its first lookup.
type Ranks struct {
	t *rankTable
}

// rankTable is the state behind a Ranks. harvest holds the pages still
// to intern while pending; tab and ranks are kept across builds.
type rankTable struct {
	harvest []PageStat
	method  Method
	pending bool
	tab     *pageidx.Table[PageKey]
	ranks   []uint64
}

// built returns the table, interning a pending harvest first; nil for
// the zero Ranks.
func (r Ranks) built() *rankTable {
	t := r.t
	if t != nil && t.pending {
		if t.tab == nil {
			t.tab = pageidx.New(len(t.harvest), PageKeyHash)
			t.ranks = make([]uint64, 0, len(t.harvest))
		} else {
			t.tab.Reset()
			t.ranks = t.ranks[:0]
		}
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
		t.harvest, t.pending = nil, false
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

// RankTable is reusable scratch for an epoch's hotness table; the zero
// value is ready to use. A caller that ranks every epoch keeps one, and
// the tables its Of returns build into the same interning table and
// rank column, so they allocate nothing once those have grown to the
// harvest. A RankTable must not be copied after its first Of.
type RankTable struct {
	t rankTable
}

// Of returns the hotness table for a harvest under a method. It is
// O(1): the table interns the harvest on its first Get or Len. Until
// then it aliases stats.Pages, so it stays valid only until that
// backing array is reused — the next HarvestEpochInto into the same
// EpochStats — and, since every table from one RankTable shares its
// scratch, only until the next Of.
func (rt *RankTable) Of(stats EpochStats, m Method) Ranks {
	rt.t.harvest, rt.t.method, rt.t.pending = stats.Pages, m, true
	return Ranks{t: &rt.t}
}

// RanksOf is RankTable.Of on fresh scratch: a one-shot hotness table
// for a harvest under a method, which the page mover uses to demote
// coldest-first. sim.RunPlacement keeps a RankTable instead; the
// benchmark's replay calls RanksOf. Both hand the table to
// Mover.ApplySelection within the epoch that built it.
func RanksOf(stats EpochStats, m Method) Ranks {
	return new(RankTable).Of(stats, m)
}
