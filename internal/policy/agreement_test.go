package policy

import (
	"fmt"
	"maps"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/mem"
	"tieredmem/internal/order"
)

// agreementStats builds a tie-heavy harvest with every page in the
// slow tier, so the fast-tier tie preference is neutral and policies
// that track residency (History via statLess) and policies that do not
// (Decay) are comparable.
func agreementStats(n int) core.EpochStats {
	stats := core.EpochStats{Pages: make([]core.PageStat, 0, n)}
	for i := 0; i < n; i++ {
		stats.Pages = append(stats.Pages, core.PageStat{
			Key:      core.PageKey{PID: 1 + i%3, VPN: mem.VPN(i / 3)},
			Tier:     mem.SlowTier,
			Evidence: mem.Evidence{Abit: uint32(i % 4), Trace: uint32(i % 6)}, // heavy tie groups, some zero-rank
		})
	}
	return stats
}

func selectionKeys(sel Selection) map[core.PageKey]bool {
	out := make(map[core.PageKey]bool, len(sel))
	for k := range sel {
		out[k] = true
	}
	return out
}

// TestSelectorsAgreeOnSharedComparator is the cross-package drift
// guard the shared comparator exists for: with residency neutralized
// and fresh per-policy state, History, Oracle and Decay (alpha=1
// degrades to History) must all pick exactly the keys of the full
// RankedPages prefix.
func TestSelectorsAgreeOnSharedComparator(t *testing.T) {
	stats := agreementStats(60)
	for _, method := range []core.Method{core.MethodAbit, core.MethodTrace, core.MethodCombined} {
		ranked := core.RankedPages(stats, method)
		for _, capacity := range []int{1, 3, len(ranked) / 2, len(ranked), len(ranked) + 10} {
			want := make(map[core.PageKey]bool, capacity)
			for i, ps := range ranked {
				if i >= capacity {
					break
				}
				want[ps.Key] = true
			}
			policies := []Policy{
				History{},
				Oracle{},
				NewDecay(1.0),
			}
			for _, p := range policies {
				// Oracle reads next; everything else reads prev.
				sel := p.Select(stats, stats, method, capacity)
				got := selectionKeys(sel)
				if len(got) != len(want) {
					t.Errorf("%s method=%v capacity=%d: selected %d pages, want %d",
						p.Name(), method, capacity, len(got), len(want))
					continue
				}
				for _, k := range order.SortedKeysFunc(want, core.PageKeyLess) {
					if !got[k] {
						t.Errorf("%s method=%v capacity=%d: page %v missing from selection",
							p.Name(), method, capacity, k)
					}
				}
			}
		}
	}
}

// TestBoundedSelectionSweepsCapacity sweeps capacity over a tie-heavy
// harvest and checks the bounded takeTop prefix is always exactly the
// full-sort prefix — the policy-side view of the core differential
// test.
func TestBoundedSelectionSweepsCapacity(t *testing.T) {
	stats := agreementStats(45)
	method := core.MethodCombined
	ranked := core.RankedPages(stats, method)
	var scratch selScratch
	for capacity := 0; capacity <= len(ranked)+2; capacity++ {
		sel := takeTop(nil, stats, method, capacity)
		if reused := takeTop(&scratch, stats, method, capacity); !maps.Equal(reused, sel) {
			t.Fatalf("capacity %d: reused scratch selects %d pages, fresh scratch %d", capacity, len(reused), len(sel))
		}
		wantLen := capacity
		if wantLen > len(ranked) {
			wantLen = len(ranked)
		}
		if len(sel) != wantLen {
			t.Fatalf("capacity %d: |selection| = %d, want %d", capacity, len(sel), wantLen)
		}
		for i := 0; i < wantLen; i++ {
			if _, ok := sel[ranked[i].Key]; !ok {
				t.Fatalf("capacity %d: ranked[%d]=%v not selected", capacity, i, ranked[i].Key)
			}
		}
	}
}

// TestSelectionDeterminism re-runs a stateful policy from fresh state
// and requires byte-identical selections — the same-seed-same-ranks
// contract at the policy layer.
func TestSelectionDeterminism(t *testing.T) {
	stats := agreementStats(60)
	run := func() string {
		p := NewDecay(0.5)
		var out string
		for epoch := 0; epoch < 3; epoch++ {
			sel := p.Select(stats, core.EpochStats{}, core.MethodCombined, 10)
			for _, ps := range core.RankedPages(stats, core.MethodCombined) {
				if _, ok := sel[ps.Key]; ok {
					out += fmt.Sprintf("%d:%d;", ps.Key.PID, uint64(ps.Key.VPN))
				}
			}
			out += "|"
		}
		return out
	}
	if a, b := run(), run(); a != b {
		t.Errorf("stateful selection not reproducible:\n%s\n%s", a, b)
	}
}
