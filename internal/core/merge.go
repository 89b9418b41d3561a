package core

import (
	"slices"

	"tieredmem/internal/core/pageidx"
)

// Merger is the deterministic reduce at the heart of the sharded epoch
// pipeline: it fuses per-shard harvests of the same epoch into one
// EpochStats exactly as if a single profiler had observed the whole
// machine. Shards are walked in shard-index order (never completion
// order) and pages are interned into a dense id space, so the
// accumulation order — and therefore every downstream tie-break — is a
// pure function of the shard streams; the final canonical (PID, VPN)
// sort pins the output independently of id assignment. A Merger owns
// reusable scratch (the interning table), making steady-state merges
// allocation-free once warm — the same recycle discipline as
// HarvestEpochInto, pinned by testing.AllocsPerRun.
//
// Shards of the sharded pipeline observe disjoint page sets (each cell
// owns its processes' address spaces), but Merge does not require
// that: overlapping keys accumulate counters with last-shard tier
// winning, the SumEpochs rule.
type Merger struct {
	tab *pageidx.Table[PageKey]
}

// NewMerger returns a Merger with scratch sized for hint distinct
// pages per merge.
func NewMerger(hint int) *Merger {
	return &Merger{tab: pageidx.New(hint, PageKeyHash)}
}

// Merge fuses the shard harvests into dst. dst.Pages is truncated and
// refilled in place (zero allocations once its capacity and the
// interning table have grown to the working-set size); dst.Epoch is
// taken from the first shard, which the sharded pipeline keeps aligned
// across shards by cutting epochs on the same virtual-time boundary.
func (m *Merger) Merge(dst *EpochStats, shards []EpochStats) {
	m.tab.Reset()
	dst.Epoch = 0
	if len(shards) > 0 {
		dst.Epoch = shards[0].Epoch
	}
	dst.Pages = dst.Pages[:0]
	for si := range shards {
		pages := shards[si].Pages
		for i := range pages {
			ps := &pages[i]
			id := m.tab.Intern(ps.Key)
			if int(id) == len(dst.Pages) {
				dst.Pages = append(dst.Pages, PageStat{Key: ps.Key})
			}
			t := &dst.Pages[id]
			t.Tier = ps.Tier // last shard to place the page wins
			t.Add(ps.Evidence)
		}
	}
	// Ids are first-seen order across the shard walk; the canonical
	// sort erases even that, so shard boundaries never leak into
	// ranks, mover inputs, or serialized output.
	slices.SortFunc(dst.Pages, func(a, b PageStat) int { return PageKeyCmp(a.Key, b.Key) })
}

// MergeHarvests fuses per-shard harvests of one epoch into a fresh
// EpochStats. Callers merging every epoch should hold a Merger and
// call Merge to recycle the scratch.
func MergeHarvests(shards []EpochStats) EpochStats {
	hint := 0
	for i := range shards {
		hint += len(shards[i].Pages)
	}
	var out EpochStats
	NewMerger(hint).Merge(&out, shards)
	return out
}
