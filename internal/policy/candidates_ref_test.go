package policy

import (
	"math/rand"
	"slices"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/cpu"
	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/trace"
)

// refCandidates is the full-frame walk Mover.candidates replaced, kept
// as the plain reference the differential tests compare against: one
// pass over every allocated frame, ascending PFN, that files each
// migratable page by tier — unselected pages above the bottom tier as
// demotion candidates, selected pages below the top tier as promotion
// candidates. Ranks stay zero, as they do in candidates.
func refCandidates(mv *Mover, sel Selection, queuedKeys map[core.PageKey]struct{}) ([][]demoteCand, [][]core.PageKey) {
	phys := mv.machine.Phys
	nt := phys.Tiers()
	last := mem.TierID(nt - 1)
	demoteByTier := make([][]demoteCand, nt)
	promoteByTier := make([][]core.PageKey, nt)
	phys.ForEachAllocated(func(pfn mem.PFN, pd *mem.PageDescriptor) {
		if phys.Flags(pfn)&mem.FlagNonMigratable != 0 {
			return
		}
		key := core.PageKey{PID: int(pd.PID), VPN: pd.VPage}
		if queuedKeys != nil {
			if _, queued := queuedKeys[key]; queued {
				return
			}
		}
		_, selected := sel[key]
		switch tier := phys.TierOf(pfn); {
		case !selected && tier < last:
			demoteByTier[tier] = append(demoteByTier[tier], demoteCand{key: key})
		case selected && tier != mem.FastTier:
			promoteByTier[tier] = append(promoteByTier[tier], key)
		}
	})
	return demoteByTier, promoteByTier
}

// candChains are the differential machines: a DRAM tier with room for
// one THP-backed huge page over one, two or three slower tiers. The
// touched footprint (candSpan) stays below every chain's capacity.
var candChains = []string{
	"dram:640/nvm:2048",
	"dram:640/cxl:512/nvm:2048",
	"dram:640/cxl:256/nvm:512/ssd:2048",
}

// candSpan is each process's VPN span; pid 1's first huge page is
// THP-backed when a contiguous run is free.
var candSpan = map[int]int{1: 2 * mem.HugePages, 2: mem.HugePages, 3: mem.HugePages / 2}

// candRig is a transactional mover on a faulted machine plus the
// selection and extra queued keys the next candidate check uses.
type candRig struct {
	m     *cpu.Machine
	mv    *Mover
	col   *Collapser
	sel   Selection
	extra []core.PageKey // queued on top of the retry queue's keys
}

// newCandRig runs the three processes on chainMachine's two cores, so
// pids 1 and 3 share a core and the same low VPNs; TLB entries carry
// an address-space tag, so neither sees the other's translations.
func newCandRig(t *testing.T, chain string, seed int64) *candRig {
	t.Helper()
	m := chainMachine(t, chain)
	m.SetHugeHint(func(pid int, vpn mem.VPN) bool { return pid == 1 && vpn < mem.HugePages })
	spec, err := fault.ParseSpec("all=0.1")
	if err != nil {
		t.Fatal(err)
	}
	plane := fault.New(spec, seed)
	m.Phys.SetFaultPlane(plane)
	mv := NewMover(m)
	mv.Transactional = true
	mv.SetFaultPlane(plane)
	return &candRig{m: m, mv: mv, col: NewCollapser(m), sel: Selection{}}
}

// frames lists each tier's allocated frames, ascending PFN.
func (r *candRig) frames() [][]mem.PFN {
	out := make([][]mem.PFN, r.m.Phys.Tiers())
	for t := range out {
		r.m.Phys.ForEachAllocatedIn(mem.TierID(t), func(pfn mem.PFN, _ *mem.PageDescriptor) { out[t] = append(out[t], pfn) })
	}
	return out
}

// pageKey is the page an allocated frame backs.
func (r *candRig) pageKey(pfn mem.PFN) core.PageKey {
	pd := r.m.Phys.Page(pfn)
	return core.PageKey{PID: int(pd.PID), VPN: pd.VPage}
}

// pick returns the i-th allocated frame of tier t%tiers and its page,
// or false when that tier holds none.
func (r *candRig) pick(frames [][]mem.PFN, t, i int) (core.PageKey, mem.PFN, bool) {
	fs := frames[t%len(frames)]
	if len(fs) == 0 {
		return core.PageKey{}, 0, false
	}
	pfn := fs[i%len(fs)]
	return r.pageKey(pfn), pfn, true
}

// touch runs n references from (pid, vpn) through Machine.Execute.
func (r *candRig) touch(t *testing.T, pid, vpn, n int, write bool) {
	t.Helper()
	kind := trace.Load
	if write {
		kind = trace.Store
	}
	for i := vpn; i < vpn+n && i < candSpan[pid]; i++ {
		if _, err := r.m.Execute(trace.Ref{PID: pid, VAddr: uint64(i) * 4096, Kind: kind}); err != nil {
			t.Fatal(err)
		}
	}
}

// choose replaces the selection with n keys drawn from every kind the
// mover must cope with, and (when queue is set) queues some of them plus
// some unselected pages on top of the retry queue.
func (r *candRig) choose(rng *rand.Rand, n int, bulkTier int, queue bool) {
	r.sel = Selection{}
	r.extra = r.extra[:0]
	frames := r.frames()
	if bulkTier >= 0 {
		for _, pfn := range frames[bulkTier%len(frames)] {
			r.sel[r.pageKey(pfn)] = struct{}{}
		}
	}
	for i := 0; i < n; i++ {
		var k core.PageKey
		switch rng.Intn(5) {
		case 0, 1: // a mapped page, in any tier
			var ok bool
			if k, _, ok = r.pick(frames, rng.Intn(4), rng.Int()); !ok {
				continue
			}
		case 2: // never mapped
			pid := 1 + rng.Intn(3)
			k = core.PageKey{PID: pid, VPN: mem.VPN(candSpan[pid] + rng.Intn(64))}
		case 3: // a PID with no page table
			k = core.PageKey{PID: 9 + rng.Intn(3), VPN: mem.VPN(rng.Intn(64))}
		default: // inside pid 1's THP-hinted range
			k = core.PageKey{PID: 1, VPN: mem.VPN(rng.Intn(mem.HugePages))}
		}
		r.sel[k] = struct{}{}
		if queue && rng.Intn(4) == 0 {
			r.extra = append(r.extra, k)
		}
	}
	if queue {
		for i := 0; i < 4; i++ {
			if k, _, ok := r.pick(frames, rng.Intn(4), rng.Int()); ok {
				r.extra = append(r.extra, k)
			}
		}
	}
}

// ranks builds a harvest-backed table over every allocated page with
// small, tie-heavy A-bit counts.
func (r *candRig) ranks(rng *rand.Rand) core.Ranks {
	var stats core.EpochStats
	r.m.Phys.ForEachAllocated(func(pfn mem.PFN, pd *mem.PageDescriptor) {
		stats.Pages = append(stats.Pages, core.PageStat{
			Key:      core.PageKey{PID: int(pd.PID), VPN: pd.VPage},
			Tier:     r.m.Phys.TierOf(pfn),
			Evidence: mem.Evidence{Abit: uint32(rng.Intn(4))},
		})
	})
	return core.RanksOf(stats, core.MethodAbit)
}

// queued is the key set ApplySelection would keep out of the fresh
// pass — the retry queue's keys — plus the rig's extra keys; nil when
// both are empty, as ApplySelection passes it.
func (r *candRig) queued() map[core.PageKey]struct{} {
	if len(r.mv.retries)+len(r.extra) == 0 {
		return nil
	}
	q := make(map[core.PageKey]struct{}, len(r.mv.retries)+len(r.extra))
	for _, e := range r.mv.retries {
		q[e.key] = struct{}{}
	}
	for _, k := range r.extra {
		q[k] = struct{}{}
	}
	return q
}

// step applies one op decoded from four bytes: a touch run, a new
// selection, an ApplySelection, a khugepaged pass, or a pin toggle.
func (r *candRig) step(t *testing.T, op [4]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(op[1]) | int64(op[2])<<8 | int64(op[3])<<16))
	switch op[0] % 5 {
	case 0:
		pid := 1 + int(op[1])%3
		vpn := (int(op[2]) | int(op[3])<<8) % candSpan[pid]
		r.touch(t, pid, vpn, 1+int(op[1]>>2)%64, op[3]&1 != 0)
	case 1:
		bulk := -1
		if op[2]&1 != 0 {
			bulk = int(op[2] >> 1)
		}
		r.choose(rng, int(op[1])%48, bulk, op[3]%3 == 0)
	case 2:
		ranks := core.Ranks{}
		if op[1]&1 != 0 {
			ranks = r.ranks(rng)
		}
		r.mv.ApplySelection(r.sel, ranks)
	case 3:
		r.col.Collapse([]int{1, 2, 3}, 2)
	default:
		if _, pfn, ok := r.pick(r.frames(), int(op[1]), int(op[2])); ok {
			r.m.Phys.SetNonMigratable(pfn, r.m.Phys.Flags(pfn)&mem.FlagNonMigratable == 0)
		}
	}
}

// check asserts candidates and the reference walk agree, per tier and
// in order.
func (r *candRig) check(t *testing.T, step int) {
	t.Helper()
	q := r.queued()
	gotD, gotP := r.mv.candidates(r.sel, q)
	wantD, wantP := refCandidates(r.mv, r.sel, q)
	if len(gotD) != len(wantD) || len(gotP) != len(wantP) {
		t.Fatalf("step %d: %d/%d tier columns, want %d/%d", step, len(gotD), len(gotP), len(wantD), len(wantP))
	}
	for tier := range wantD {
		if !slices.Equal(gotD[tier], wantD[tier]) {
			t.Fatalf("step %d: tier %d demotion candidates\n got  %v\n want %v", step, tier, gotD[tier], wantD[tier])
		}
		if !slices.Equal(gotP[tier], wantP[tier]) {
			t.Fatalf("step %d: tier %d promotion candidates\n got  %v\n want %v", step, tier, gotP[tier], wantP[tier])
		}
	}
}

// maxFuzzSteps bounds one fuzz input's op stream.
const maxFuzzSteps = 256

// FuzzCandidatesMatchWalk drives a transactional mover on a faulted
// 2-, 3- or 4-tier machine through random touches, selections (pages in
// every tier, unmapped keys, unknown PIDs, THP-mapped pages),
// ApplySelection calls, khugepaged passes and pin toggles, and after
// every step holds Mover.candidates to the full-frame walk it replaced.
func FuzzCandidatesMatchWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, chain uint8, seed int64, ops []byte) {
		r := newCandRig(t, candChains[int(chain)%len(candChains)], seed)
		// Every step is checked against a full walk, so cap the stream
		// to keep one input cheap.
		for step := 0; len(ops) >= 4 && step < maxFuzzSteps; step++ {
			r.step(t, [4]byte(ops[:4]))
			ops = ops[4:]
			r.check(t, step)
		}
	})
}

// TestCandidatesMatchWalkLong runs a long pseudo-random op stream on
// every chain and checks that it reached the states the equivalence
// has to survive: retries, shadow hits, THP splits and collapses.
func TestCandidatesMatchWalkLong(t *testing.T) {
	var retried, shadowHits, splits, collapses uint64
	for i, chain := range candChains {
		r := newCandRig(t, chain, int64(i)+1)
		rng := rand.New(rand.NewSource(int64(i) + 11))
		// Fill the machine first so every tier holds pages, then mix.
		for pid := 1; pid <= 3; pid++ {
			r.touch(t, pid, 0, candSpan[pid], false)
		}
		for step := 0; step < 600; step++ {
			var op [4]byte
			rng.Read(op[:])
			r.step(t, op)
			r.check(t, step)
		}
		retried += r.mv.Retried
		shadowHits += r.mv.ShadowHits
		splits += r.mv.Splits
		collapses += r.col.Collapses
	}
	if retried == 0 || shadowHits == 0 || splits == 0 || collapses == 0 {
		t.Errorf("op stream missed a state: retried=%d shadow_hits=%d splits=%d collapses=%d",
			retried, shadowHits, splits, collapses)
	}
}
