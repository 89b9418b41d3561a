package core

import (
	"math/rand"
	"reflect"
	"testing"

	"tieredmem/internal/mem"
)

// shardFixture builds deterministic per-shard harvests with optional
// key overlap across shards.
func shardFixture(shards, pagesPer int, overlap bool) []EpochStats {
	rng := rand.New(rand.NewSource(7))
	out := make([]EpochStats, shards)
	for s := range out {
		out[s].Epoch = 3
		pid := 100 + s
		if overlap {
			pid = 100 + s%2
		}
		for p := 0; p < pagesPer; p++ {
			out[s].Pages = append(out[s].Pages, PageStat{
				Key:      PageKey{PID: pid, VPN: mem.VPN(rng.Intn(pagesPer * 2))},
				Tier:     mem.TierID(s % 3),
				Evidence: mem.Evidence{Abit: uint32(rng.Intn(4)), Trace: uint32(rng.Intn(16)), Write: uint32(rng.Intn(8)), Dev: uint32(rng.Intn(8)), True: uint32(rng.Intn(32))},
			})
		}
	}
	return out
}

// TestMergeHarvestsEqualsSumEpochs pins the semantics: merging shard
// harvests of one epoch must equal SumEpochs over the same harvests —
// same keys, same counter totals, same canonical order — for both
// disjoint (the sharded pipeline's case) and overlapping key sets.
func TestMergeHarvestsEqualsSumEpochs(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		shards := shardFixture(4, 64, overlap)
		got := MergeHarvests(shards)
		want := SumEpochs(shards)
		if got.Epoch != 3 {
			t.Fatalf("overlap=%v: merged epoch %d, want 3", overlap, got.Epoch)
		}
		if !reflect.DeepEqual(got.Pages, want.Pages) {
			t.Fatalf("overlap=%v: MergeHarvests diverges from SumEpochs\n got %v\nwant %v", overlap, got.Pages[:4], want.Pages[:4])
		}
	}
}

// TestMergeShardOrderNotCompletionOrder pins the deterministic-reduce
// rule: the result depends on shard index order, so permuting the
// shard slice must change nothing except via the documented
// last-shard-tier-wins rule — and with disjoint shards, nothing at
// all.
func TestMergeShardOrderNotCompletionOrder(t *testing.T) {
	shards := shardFixture(4, 64, false)
	a := MergeHarvests(shards)
	rev := []EpochStats{shards[3], shards[2], shards[1], shards[0]}
	b := MergeHarvests(rev)
	if !reflect.DeepEqual(a.Pages, b.Pages) {
		t.Fatal("disjoint shards: merge result depends on shard order")
	}
}

// TestMergerRecycles pins that a recycled Merger produces identical
// output to a fresh one and that empty input resets dst.
func TestMergerRecycles(t *testing.T) {
	m := NewMerger(16)
	var dst EpochStats
	shards := shardFixture(3, 32, false)
	m.Merge(&dst, shards)
	want := MergeHarvests(shards)
	if !reflect.DeepEqual(dst.Pages, want.Pages) {
		t.Fatal("recycled Merger diverges from fresh merge")
	}
	other := shardFixture(2, 8, true)
	m.Merge(&dst, other)
	if !reflect.DeepEqual(dst.Pages, MergeHarvests(other).Pages) {
		t.Fatal("second Merge on recycled Merger diverges")
	}
	m.Merge(&dst, nil)
	if len(dst.Pages) != 0 || dst.Epoch != 0 {
		t.Fatalf("Merge(nil) left dst non-empty: %d pages epoch %d", len(dst.Pages), dst.Epoch)
	}
}

// TestMergeSteadyStateZeroAlloc is the sharded pipeline's alloc pin:
// once the Merger and dst have warmed to the working-set size, a merge
// allocates nothing — the per-epoch reduce rides the same zero-alloc
// contract as HarvestEpochInto.
func TestMergeSteadyStateZeroAlloc(t *testing.T) {
	shards := shardFixture(8, 256, false)
	m := NewMerger(8 * 256)
	var dst EpochStats
	m.Merge(&dst, shards) // warm table + dst capacity
	allocs := testing.AllocsPerRun(10, func() {
		m.Merge(&dst, shards)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Merge allocates %v allocs/op, want 0", allocs)
	}
}
