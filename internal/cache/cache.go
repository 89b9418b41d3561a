// Package cache models the data-cache hierarchy between the simulated
// core and memory: physically-indexed set-associative L1D, L2, and a
// shared LLC with true-LRU replacement, plus an IP-based stride
// prefetcher. The hierarchy is what makes the paper's distinctions
// meaningful: IBS/PEBS only reports a page as memory-hot when the
// data source is beyond the LLC, HWPC gating watches LLC misses, and
// prefetched lines are served from cache so TMP's demand-load focus
// can ignore them.
package cache

import (
	"fmt"
	"math"
)

// LineShift is log2 of the 64-byte cache line size.
const (
	LineShift = 6
	LineSize  = 1 << LineShift
)

// HitLevel reports where an access was satisfied.
type HitLevel int

const (
	HitL1 HitLevel = iota
	HitL2
	HitLLC
	// MissAll means the access went to memory (either tier).
	MissAll
)

// String names the hit level.
func (h HitLevel) String() string {
	switch h {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitLLC:
		return "LLC"
	case MissAll:
		return "mem"
	default:
		return fmt.Sprintf("level(%d)", int(h))
	}
}

// Config sizes one cache level.
type Config struct {
	SizeBytes int
	Ways      int
}

// Lines returns the level's line capacity.
func (c Config) Lines() int { return c.SizeBytes / LineSize }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: size (%d) and ways (%d) must be positive", c.SizeBytes, c.Ways)
	}
	lines := c.Lines()
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return nil
}

// Stats counts events at one level.
type Stats struct {
	Hits         uint64
	Misses       uint64
	PrefetchHits uint64 // demand hits on lines brought in by the prefetcher
}

// MaxLine is the highest line number a level can hold: tags store
// line+1 in 32 bits, with 0 for an empty way. Every line a demand
// access or a prefetch names must stay at or below it, which
// cpu.NewMachine ensures by capping physical memory.
const MaxLine = math.MaxUint32 - 1

// level is one set-associative array stored flat: way w of set s is
// slot s*ways+w of every column. tags holds line+1, so 0 marks an empty
// way. lru holds the stamp of the slot's last fill or hit: 0 while the
// way is empty, at least 1 once filled. Both columns are 32-bit, so a
// 16-way set's tags fill one 64-byte host line and its stamps one more.
type level struct {
	tags       []uint32
	lru        []uint32
	prefetched []bool // line was filled by the prefetcher and not yet demanded
	ways       int
	mask       uint64
	stamp      uint32
	stats      Stats
}

func newLevel(c Config) *level {
	n := c.Lines()
	return &level{
		tags:       make([]uint32, n),
		lru:        make([]uint32, n),
		prefetched: make([]bool, n),
		ways:       c.Ways,
		mask:       uint64(n/c.Ways - 1),
	}
}

// tick advances the level's stamp and returns it. A 32-bit stamp wraps
// after 2^32 hits and fills, which a long run's L1 reaches, so just
// before that every set's stamps are renumbered by rank.
func (l *level) tick() uint32 {
	if l.stamp == math.MaxUint32 {
		l.renumber()
	}
	l.stamp++
	return l.stamp
}

// renumber replaces each filled way's stamp by its rank within its
// set, 1 for the least recently used; empty ways keep 0. Stamps are
// compared only within a set, so every set keeps its order and hence
// its first-least victim. The level's stamp restarts at the way count,
// at or above every rank.
func (l *level) renumber() {
	ranks := make([]uint32, l.ways)
	for base := 0; base < len(l.lru); base += l.ways {
		set := l.lru[base : base+l.ways]
		for i, a := range set {
			ranks[i] = 0
			for _, b := range set {
				if a != 0 && b != 0 && b <= a {
					ranks[i]++
				}
			}
		}
		copy(set, ranks)
	}
	l.stamp = uint32(l.ways)
}

// probe scans line's set without touching LRU or stats. On a hit it
// returns the line's slot. On a miss it returns the victim slot: the
// first way with the smallest stamp, which is the first empty way if
// there is one and the least recently used way otherwise.
func (l *level) probe(line uint64) (slot int, hit bool) {
	base := int(line&l.mask) * l.ways
	tag := uint32(line) + 1
	for i, t := range l.tags[base : base+l.ways] {
		if t == tag {
			return base + i, true
		}
	}
	// Holding the least stamp in a register lets the compiler pick the
	// victim with conditional moves instead of a branch per way.
	lru := l.lru[base : base+l.ways]
	v, least := 0, lru[0]
	for i, s := range lru {
		if s < least {
			v, least = i, s
		}
	}
	return base + v, false
}

// lookup is a demand probe. On a hit it refreshes LRU and clears the
// prefetched flag (returning whether it had been set); on a miss it
// returns the victim slot for fill.
func (l *level) lookup(line uint64) (slot int, hit, wasPrefetch bool) {
	slot, hit = l.probe(line)
	if !hit {
		l.stats.Misses++
		return slot, false, false
	}
	l.lru[slot] = l.tick()
	wasPrefetch = l.prefetched[slot]
	l.prefetched[slot] = false
	l.stats.Hits++
	if wasPrefetch {
		l.stats.PrefetchHits++
	}
	return slot, true, wasPrefetch
}

// fill installs line into slot, a victim returned by probe or lookup
// with no access to the level in between.
func (l *level) fill(slot int, line uint64, prefetched bool) {
	l.tags[slot] = uint32(line) + 1
	l.lru[slot] = l.tick()
	l.prefetched[slot] = prefetched
}

// Hierarchy is one core's L1/L2 plus a shared LLC. Multiple cores
// share the llc pointer.
type Hierarchy struct {
	l1, l2 *level
	llc    *SharedLLC
	pf     *Prefetcher
}

// SharedLLC is the last-level cache shared by all cores.
type SharedLLC struct {
	lvl *level
}

// NewSharedLLC builds the shared LLC.
func NewSharedLLC(c Config) (*SharedLLC, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &SharedLLC{lvl: newLevel(c)}, nil
}

// Stats returns the LLC's counters.
func (s *SharedLLC) Stats() Stats { return s.lvl.stats }

// DefaultL1, DefaultL2 and DefaultLLC size a scaled-down hierarchy.
// The evaluation scales every capacity (workload footprint, tiers,
// caches) by roughly 16x from the paper's Ryzen 3600X testbed so that
// experiments run in seconds; the *ratios* that drive every figure are
// preserved.
var (
	DefaultL1  = Config{SizeBytes: 32 << 10, Ways: 8}
	DefaultL2  = Config{SizeBytes: 256 << 10, Ways: 8}
	DefaultLLC = Config{SizeBytes: 2 << 20, Ways: 16}
)

// NewHierarchy builds one core's private levels on top of a shared
// LLC. pf may be nil to disable prefetching.
func NewHierarchy(l1, l2 Config, llc *SharedLLC, pf *Prefetcher) (*Hierarchy, error) {
	if err := l1.Validate(); err != nil {
		return nil, err
	}
	if err := l2.Validate(); err != nil {
		return nil, err
	}
	if llc == nil {
		return nil, fmt.Errorf("cache: shared LLC required")
	}
	return &Hierarchy{l1: newLevel(l1), l2: newLevel(l2), llc: llc, pf: pf}, nil
}

// Result describes one access's outcome.
type Result struct {
	Level HitLevel
	// PrefetchHit is true when the access hit a line the prefetcher
	// had staged; the paper's TMP treats such loads as non-demand
	// evidence (they would have been cache hits anyway).
	PrefetchHit bool
}

// Access performs a demand access to a physical byte address, filling
// all levels on a miss (inclusive hierarchy), training the prefetcher
// with (ip, line), and returning where the data came from. Loads and
// stores are served alike: no write-back traffic is modelled.
func (h *Hierarchy) Access(paddr uint64, ip uint64, isStore bool) Result {
	line := paddr >> LineShift
	res := h.access(line)
	if h.pf != nil {
		for _, pline := range h.pf.Train(ip, line) {
			h.prefetchFill(pline)
		}
	}
	return res
}

// access probes each level once. A miss leaves that level's victim
// slot, which the fill writes directly: nothing touches the set in
// between.
func (h *Hierarchy) access(line uint64) Result {
	s1, hit, pf := h.l1.lookup(line)
	if hit {
		return Result{Level: HitL1, PrefetchHit: pf}
	}
	s2, hit, pf := h.l2.lookup(line)
	if hit {
		h.l1.fill(s1, line, false)
		return Result{Level: HitL2, PrefetchHit: pf}
	}
	s3, hit, pf := h.llc.lvl.lookup(line)
	if hit {
		h.l2.fill(s2, line, false)
		h.l1.fill(s1, line, false)
		return Result{Level: HitLLC, PrefetchHit: pf}
	}
	// Memory access; fill inclusively.
	h.llc.lvl.fill(s3, line, false)
	h.l2.fill(s2, line, false)
	h.l1.fill(s1, line, false)
	return Result{Level: MissAll}
}

// prefetchFill stages a line into the LLC and L2 without touching L1,
// marking it prefetched. Lines already cached anywhere are skipped.
func (h *Hierarchy) prefetchFill(line uint64) {
	if _, hit := h.l1.probe(line); hit {
		return
	}
	s2, hit := h.l2.probe(line)
	if hit {
		return
	}
	s3, hit := h.llc.lvl.probe(line)
	if hit {
		return
	}
	h.llc.lvl.fill(s3, line, true)
	h.l2.fill(s2, line, true)
	h.pf.Issued++
}

// L1Stats returns the private L1 counters.
func (h *Hierarchy) L1Stats() Stats { return h.l1.stats }

// L2Stats returns the private L2 counters.
func (h *Hierarchy) L2Stats() Stats { return h.l2.stats }

// LLCStats returns the shared LLC counters.
func (h *Hierarchy) LLCStats() Stats { return h.llc.lvl.stats }
