package core

import (
	"math/rand"
	"sort"
	"testing"

	"tieredmem/internal/mem"
)

// tieHeavyStats builds a harvest with unique keys, heavy rank ties
// (small moduli), mixed tiers, and shuffled input order — the shape
// that stresses both the tie-break and the bounded heap.
func tieHeavyStats(n int, seed int64) EpochStats {
	rng := rand.New(rand.NewSource(seed))
	stats := EpochStats{Pages: make([]PageStat, 0, n)}
	for i := 0; i < n; i++ {
		tier := mem.SlowTier
		if i%3 == 0 {
			tier = mem.FastTier
		}
		stats.Pages = append(stats.Pages, PageStat{
			Key:      PageKey{PID: 1 + i%4, VPN: mem.VPN(i / 4)},
			Tier:     tier,
			Evidence: mem.Evidence{Abit: uint32(i % 7), Trace: uint32(i % 11)}, // many zero-rank pages and tie groups
		})
	}
	rng.Shuffle(len(stats.Pages), func(i, j int) {
		stats.Pages[i], stats.Pages[j] = stats.Pages[j], stats.Pages[i]
	})
	return stats
}

// TestTopKMatchesFullSortTruncate is the differential proof the
// bounded selection leans on: for every method and a sweep of k
// (including 0, 1, exactly n, and past n), TopK must be
// element-for-element identical to the full RankedPages sort truncated
// to k — tie shapes included — and TopKSet must hold the same pages in
// any order.
func TestTopKMatchesFullSortTruncate(t *testing.T) {
	var scratch []PageStat
	for _, n := range []int{0, 1, 13, 100} {
		stats := tieHeavyStats(n, int64(n)+1)
		for _, m := range []Method{MethodAbit, MethodTrace, MethodCombined} {
			full := RankedPages(stats, m)
			for _, k := range []int{0, 1, 3, n / 2, n - 1, n, n + 5} {
				if k < 0 {
					continue
				}
				got := TopK(stats, m, k)
				want := full
				if k < len(want) {
					want = want[:k]
				}
				if len(got) != len(want) {
					t.Fatalf("n=%d m=%v k=%d: TopK len %d, full-sort len %d", n, m, k, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d m=%v k=%d: element %d differs: TopK %+v, full sort %+v",
							n, m, k, i, got[i], want[i])
					}
				}
				// A reused destination, alternately too small and
				// larger than needed, must hold the same set.
				set := TopKSet(scratch, stats, m, k)
				scratch = set
				sort.Slice(set, func(i, j int) bool { return statLess(&set[i], &set[j], m) })
				if len(set) != len(want) {
					t.Fatalf("n=%d m=%v k=%d: TopKSet len %d, full-sort len %d", n, m, k, len(set), len(want))
				}
				for i := range set {
					if set[i] != want[i] {
						t.Fatalf("n=%d m=%v k=%d: TopKSet holds %+v where the full sort has %+v",
							n, m, k, set[i], want[i])
					}
				}
			}
		}
	}
}

// TestTopKFuncMatchesSortTruncate proves the generic bounded selector
// against sort-then-truncate on the coldest-first order the mover uses.
func TestTopKFuncMatchesSortTruncate(t *testing.T) {
	type cand struct {
		key  PageKey
		rank uint64
	}
	coldest := func(a, b cand) bool { return ColdestLess(a.rank, b.rank, a.key, b.key) }
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 17, 64} {
		base := make([]cand, n)
		for i := range base {
			base[i] = cand{key: PageKey{PID: 1, VPN: mem.VPN(i)}, rank: uint64(i % 5)}
		}
		rng.Shuffle(n, func(i, j int) { base[i], base[j] = base[j], base[i] })
		want := append([]cand(nil), base...)
		sort.Slice(want, func(i, j int) bool { return coldest(want[i], want[j]) })
		for _, k := range []int{-1, 0, 1, n / 2, n, n + 3} {
			in := append([]cand(nil), base...)
			got := TopKFunc(in, k, coldest)
			w := want
			if k < 0 {
				w = want[:0]
			} else if k < len(w) {
				w = want[:k]
			}
			if len(got) != len(w) {
				t.Fatalf("n=%d k=%d: TopKFunc len %d, want %d", n, k, len(got), len(w))
			}
			for i := range got {
				if got[i] != w[i] {
					t.Fatalf("n=%d k=%d: element %d = %+v, want %+v", n, k, i, got[i], w[i])
				}
			}
		}
	}
}

func TestRankLessCanonicalOrder(t *testing.T) {
	a, b := PageKey{1, 1}, PageKey{1, 2}
	if !RankLess(2, 1, false, false, a, b) || RankLess(1, 2, false, false, a, b) {
		t.Errorf("rank-descending broken")
	}
	if !RankLess(1, 1, true, false, b, a) || RankLess(1, 1, false, true, a, b) {
		t.Errorf("fast-tier tie preference broken")
	}
	if !RankLess(1, 1, false, false, a, b) || RankLess(1, 1, false, false, b, a) {
		t.Errorf("(PID, VPN) tie-break broken")
	}
	// ColdestLess is RankLess with ranks swapped: ascending rank.
	if !ColdestLess(1, 2, a, b) || ColdestLess(2, 1, a, b) {
		t.Errorf("ColdestLess not coldest-first")
	}
	if !ColdestLess(1, 1, a, b) || ColdestLess(1, 1, b, a) {
		t.Errorf("ColdestLess tie-break broken")
	}
}

func TestRanksFromMap(t *testing.T) {
	r := RanksFromMap(map[PageKey]uint64{
		{1, 1}: 10,
		{1, 2}: 0,
		{2, 1}: 3,
	})
	if r.Get(PageKey{1, 1}) != 10 || r.Get(PageKey{2, 1}) != 3 {
		t.Errorf("stored ranks wrong: %d, %d", r.Get(PageKey{1, 1}), r.Get(PageKey{2, 1}))
	}
	if r.Get(PageKey{1, 2}) != 0 || r.Get(PageKey{9, 9}) != 0 {
		t.Errorf("zero/missing pages must rank 0")
	}
}
