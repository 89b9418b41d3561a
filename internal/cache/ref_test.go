package cache

import "testing"

// refWay, refLevel and refHierarchy are the array-of-sets model the
// flat level replaced, kept as the plain reference the differential
// tests compare against: each level a slice of sets, each set a slice
// of ways with a valid bit, and every fill rescanning the set for the
// line before taking the first invalid way, else the first least
// recently used one.
type refWay struct {
	tag        uint64
	lru        uint64
	valid      bool
	prefetched bool
}

type refLevel struct {
	sets  [][]refWay
	mask  uint64
	stamp uint64
	stats Stats
}

func newRefLevel(c Config) *refLevel {
	sets := c.Lines() / c.Ways
	l := &refLevel{sets: make([][]refWay, sets), mask: uint64(sets - 1)}
	for i := range l.sets {
		l.sets[i] = make([]refWay, c.Ways)
	}
	return l
}

func (l *refLevel) lookup(line uint64) (hit, wasPrefetch bool) {
	set := l.sets[line&l.mask]
	for i := range set {
		if set[i].valid && set[i].tag == line {
			l.stamp++
			set[i].lru = l.stamp
			wasPrefetch = set[i].prefetched
			set[i].prefetched = false
			l.stats.Hits++
			if wasPrefetch {
				l.stats.PrefetchHits++
			}
			return true, wasPrefetch
		}
	}
	l.stats.Misses++
	return false, false
}

func (l *refLevel) contains(line uint64) bool {
	set := l.sets[line&l.mask]
	for i := range set {
		if set[i].valid && set[i].tag == line {
			return true
		}
	}
	return false
}

func (l *refLevel) fill(line uint64, prefetched bool) {
	set := l.sets[line&l.mask]
	for i := range set {
		if set[i].valid && set[i].tag == line {
			return
		}
	}
	v := 0
	for i := range set {
		if !set[i].valid {
			v = i
			break
		}
		if set[i].lru < set[v].lru {
			v = i
		}
	}
	l.stamp++
	set[v] = refWay{tag: line, lru: l.stamp, valid: true, prefetched: prefetched}
}

type refHierarchy struct {
	l1, l2, llc *refLevel
	pf          *Prefetcher
}

func (h *refHierarchy) Access(paddr, ip uint64) Result {
	line := paddr >> LineShift
	res := h.access(line)
	if h.pf != nil {
		for _, pline := range h.pf.Train(ip, line) {
			if h.l1.contains(pline) || h.l2.contains(pline) || h.llc.contains(pline) {
				continue
			}
			h.llc.fill(pline, true)
			h.l2.fill(pline, true)
			h.pf.Issued++
		}
	}
	return res
}

func (h *refHierarchy) access(line uint64) Result {
	if hit, pf := h.l1.lookup(line); hit {
		return Result{Level: HitL1, PrefetchHit: pf}
	}
	if hit, pf := h.l2.lookup(line); hit {
		h.l1.fill(line, false)
		return Result{Level: HitL2, PrefetchHit: pf}
	}
	if hit, pf := h.llc.lookup(line); hit {
		h.l2.fill(line, false)
		h.l1.fill(line, false)
		return Result{Level: HitLLC, PrefetchHit: pf}
	}
	h.llc.fill(line, false)
	h.l2.fill(line, false)
	h.l1.fill(line, false)
	return Result{Level: MissAll}
}

// geometry is one hierarchy shape the differential tests drive.
type geometry struct{ l1, l2, llc Config }

var (
	geomTiny = geometry{
		Config{SizeBytes: 1 << 10, Ways: 2},
		Config{SizeBytes: 4 << 10, Ways: 4},
		Config{SizeBytes: 16 << 10, Ways: 4},
	}
	geomDefault = geometry{DefaultL1, DefaultL2, DefaultLLC}
	// geomEnds puts both ends of the recency order in one hierarchy: a
	// direct-mapped L1 under a 16-way L2 and LLC.
	geomEnds = geometry{
		Config{SizeBytes: 1 << 10, Ways: 1},
		Config{SizeBytes: 8 << 10, Ways: 16},
		Config{SizeBytes: 32 << 10, Ways: 16},
	}
)

// refPair builds the flat hierarchy and the reference on one geometry,
// each with its own prefetcher when degree > 0.
func refPair(t testing.TB, g geometry, degree int) (*Hierarchy, *refHierarchy) {
	t.Helper()
	var pf, rpf *Prefetcher
	if degree > 0 {
		pf, rpf = NewPrefetcher(64, degree), NewPrefetcher(64, degree)
	}
	llc, err := NewSharedLLC(g.llc)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(g.l1, g.l2, llc, pf)
	if err != nil {
		t.Fatal(err)
	}
	return h, &refHierarchy{l1: newRefLevel(g.l1), l2: newRefLevel(g.l2), llc: newRefLevel(g.llc), pf: rpf}
}

// accessBoth runs one access on both hierarchies and compares the
// result, every level's counters and the prefetches issued.
func accessBoth(t *testing.T, step int, h *Hierarchy, ref *refHierarchy, paddr, ip uint64, isStore bool) {
	t.Helper()
	got, want := h.Access(paddr, ip, isStore), ref.Access(paddr, ip)
	if got != want {
		t.Fatalf("step %d (paddr %#x): result %+v, reference %+v", step, paddr, got, want)
	}
	if h.L1Stats() != ref.l1.stats || h.L2Stats() != ref.l2.stats || h.LLCStats() != ref.llc.stats {
		t.Fatalf("step %d: stats L1 %+v L2 %+v LLC %+v, reference %+v %+v %+v", step,
			h.L1Stats(), h.L2Stats(), h.LLCStats(), ref.l1.stats, ref.l2.stats, ref.llc.stats)
	}
	if h.pf != nil && h.pf.Issued != ref.pf.Issued {
		t.Fatalf("step %d: prefetches issued %d, reference %d", step, h.pf.Issued, ref.pf.Issued)
	}
}

// FuzzHierarchyMatchesReference drives one access sequence through the
// flat hierarchy and the reference, on the tiny or the default
// geometry, with the prefetcher on or off. Each access takes three
// bytes: a flag byte and a little-endian line number. Flag bit 0 makes
// the access a store, bits 1-2 pick the instruction pointer, and bit 3
// steps from the previous line by bits 4-7 instead of reading a line.
func FuzzHierarchyMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, tiny, prefetch bool, ops []byte) {
		g, degree := geomDefault, 0
		if tiny {
			g = geomTiny
		}
		if prefetch {
			degree = 2
		}
		h, ref := refPair(t, g, degree)
		var line uint64
		for step := 0; len(ops) >= 3; step++ {
			flags := ops[0]
			if flags&8 != 0 {
				line += uint64(flags >> 4)
			} else {
				line = uint64(ops[1]) | uint64(ops[2])<<8
			}
			ops = ops[3:]
			ip := 0x400000 + uint64(flags>>1&3)<<2
			accessBoth(t, step, h, ref, line<<LineShift|uint64(step)%LineSize, ip, flags&1 != 0)
		}
	})
}

// driveLong runs a pseudo-random sequence through both hierarchies:
// runs of consecutive lines, which train the prefetcher, broken by
// jumps over a footprint four times the LLC.
func driveLong(t *testing.T, g geometry, h *Hierarchy, ref *refHierarchy, steps int) {
	t.Helper()
	footprint := uint64(4 * g.llc.Lines())
	x := uint64(0x9e3779b97f4a7c15)
	var line uint64
	for step := 0; step < steps; step++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%4 == 0 {
			line = x >> 8 % footprint
		} else {
			line++
		}
		accessBoth(t, step, h, ref, line<<LineShift, 0x400000+(x>>4&3)<<2, x&16 != 0)
	}
}

// TestHierarchyMatchesReferenceLong runs long pseudo-random sequences
// on every geometry with the prefetcher on and off.
func TestHierarchyMatchesReferenceLong(t *testing.T) {
	for _, g := range []geometry{geomTiny, geomDefault, geomEnds} {
		for _, degree := range []int{0, 2} {
			h, ref := refPair(t, g, degree)
			driveLong(t, g, h, ref, 200_000)
		}
	}
}
