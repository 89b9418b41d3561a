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
	"math/bits"
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

// maxWays bounds a level's associativity: a set's recency order packs
// one 4-bit way number per way into a uint64.
const maxWays = 16

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: size (%d) and ways (%d) must be positive", c.SizeBytes, c.Ways)
	}
	if c.Ways > maxWays {
		return fmt.Errorf("cache: %d ways exceed the maximum of %d", c.Ways, maxWays)
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

// Replicated constants for the SWAR (SIMD within a register) tests: a
// set bit at the bottom or the top of every byte or nibble.
const (
	lowBytes   = 0x0101010101010101
	topBytes   = 0x8080808080808080
	lowNibbles = 0x1111111111111111
	topNibbles = 0x8888888888888888
)

// set is one set's metadata, 32 bytes.
//   - fp: way w's fingerprint is byte w%8 of fp[w/8]: its line's
//     fingerprint once filled, 0 while empty.
//   - order: the ways from most to least recently used, 4 bits each
//     from the low end. Nibbles past the last way hold stale ways that
//     no result depends on.
//   - pf: bit w is set while way w holds a line the prefetcher filled
//     and no demand access has hit.
type set struct {
	fp    [2]uint64
	order uint64
	pf    uint64
}

// level is one set-associative array: a record per set, plus the tags
// stored flat, way w of set s at tags[s*ways+w]. A tag holds line+1, so
// 0 marks an empty way. Tags are read only to confirm a fingerprint
// match, so they stay out of the record.
//
// Ways are filled and never invalidated, so the filled ways of a set are
// always a prefix of it. Every set's order starts as ways n-1 ... 0, so
// its tail is the first empty way while the set has one, and the least
// recently used way after that: the victim is always the tail.
type level struct {
	sets  []set
	tags  []uint32
	ways  int
	mask  uint64 // set index mask
	shift uint   // log2 of the set count: the fingerprint's line bits start here
	tail  uint   // the bit offset of the least recent way in order
	stats Stats
}

func newLevel(c Config) *level {
	n := c.Lines()
	sets := n / c.Ways
	l := &level{
		sets:  make([]set, sets),
		tags:  make([]uint32, n),
		ways:  c.Ways,
		mask:  uint64(sets - 1),
		shift: uint(bits.TrailingZeros(uint(sets))),
		tail:  4 * uint(c.Ways-1),
	}
	var order uint64
	for w := 0; w < c.Ways; w++ {
		order = order<<4 | uint64(w)
	}
	for i := range l.sets {
		l.sets[i].order = order
	}
	return l
}

// fingerprint is line's tag byte: the 7 line bits just above the set
// index, with the top bit set so that it never equals an empty way's 0.
func (l *level) fingerprint(line uint64) uint64 { return 0x80 | line>>l.shift&0x7f }

// probe finds line in its set without touching recency or stats. It
// returns the set and the line's way, or -1 on a miss.
//
// The has-zero-byte test flags each way whose fingerprint equals line's.
// A borrow can also flag the byte just above a true match, and distinct
// lines share fingerprints, so every candidate is confirmed against its
// tag. A line sits in at most one way, because fills happen only on a
// miss, so the first confirmed candidate is the hit. An empty way, and a
// byte past the last way, holds 0: XORed with the pattern it keeps its
// top bit, so it is never flagged and never borrows, and the test needs
// no per-level mask.
func (l *level) probe(line uint64) (s *set, way int) {
	si := int(line & l.mask)
	s = &l.sets[si]
	base := si * l.ways
	tag := uint32(line) + 1
	pat := l.fingerprint(line) * lowBytes
	for i, fp := range s.fp {
		x := fp ^ pat
		for c := (x - lowBytes) &^ x & topBytes; c != 0; c &= c - 1 {
			w := i<<3 | bits.TrailingZeros64(c)>>3
			if l.tags[base+w] == tag {
				return s, w
			}
		}
	}
	return s, -1
}

// lookup is a demand probe. On a hit it moves the line's way to the
// front of its set's order and clears its prefetched bit, returning
// whether that had been set.
func (l *level) lookup(line uint64) (hit, wasPrefetch bool) {
	s, w := l.probe(line)
	if w < 0 {
		l.stats.Misses++
		return false, false
	}
	s.order = touch(s.order, w)
	bit := uint64(1) << w
	wasPrefetch = s.pf&bit != 0
	s.pf &^= bit
	l.stats.Hits++
	if wasPrefetch {
		l.stats.PrefetchHits++
	}
	return true, wasPrefetch
}

// touch moves way w to the front of order. The has-zero-nibble test
// finds w's nibble: a borrow can flag only a nibble above a true match,
// and w appears once, so the lowest flag is w's.
func touch(order uint64, w int) uint64 {
	x := order ^ uint64(w)*lowNibbles
	at := uint(bits.TrailingZeros64((x-lowNibbles)&^x&topNibbles)) &^ 3
	below := uint64(1)<<at - 1
	return order&(^uint64(0)<<at<<4) | (order&below)<<4 | uint64(w)
}

// victim returns the way a fill of s replaces: its order's tail.
func (l *level) victim(s *set) int { return int(s.order >> l.tail & 0xf) }

// fill installs line, which its set does not hold, in the set's victim,
// and moves that way from the tail of the order to the front.
func (l *level) fill(line uint64, prefetched bool) {
	si := int(line & l.mask)
	s := &l.sets[si]
	w := l.victim(s)
	l.tags[si*l.ways+w] = uint32(line) + 1
	at := uint(w&7) << 3
	s.fp[w>>3] = s.fp[w>>3]&^(0xff<<at) | l.fingerprint(line)<<at
	s.order = s.order<<4 | uint64(w)
	bit := uint64(1) << w
	if prefetched {
		s.pf |= bit
	} else {
		s.pf &^= bit
	}
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

// access probes each level once. A miss fills every level above the
// one that held the line, and all three on a memory access.
func (h *Hierarchy) access(line uint64) Result {
	if hit, pf := h.l1.lookup(line); hit {
		return Result{Level: HitL1, PrefetchHit: pf}
	}
	if hit, pf := h.l2.lookup(line); hit {
		h.l1.fill(line, false)
		return Result{Level: HitL2, PrefetchHit: pf}
	}
	if hit, pf := h.llc.lvl.lookup(line); hit {
		h.l2.fill(line, false)
		h.l1.fill(line, false)
		return Result{Level: HitLLC, PrefetchHit: pf}
	}
	// Memory access; fill inclusively.
	h.llc.lvl.fill(line, false)
	h.l2.fill(line, false)
	h.l1.fill(line, false)
	return Result{Level: MissAll}
}

// prefetchFill stages a line into the LLC and L2 without touching L1,
// marking it prefetched. Lines already cached anywhere are skipped.
func (h *Hierarchy) prefetchFill(line uint64) {
	for _, l := range [...]*level{h.l1, h.l2, h.llc.lvl} {
		if _, w := l.probe(line); w >= 0 {
			return
		}
	}
	h.llc.lvl.fill(line, true)
	h.l2.fill(line, true)
	h.pf.Issued++
}

// L1Stats returns the private L1 counters.
func (h *Hierarchy) L1Stats() Stats { return h.l1.stats }

// L2Stats returns the private L2 counters.
func (h *Hierarchy) L2Stats() Stats { return h.l2.stats }

// LLCStats returns the shared LLC counters.
func (h *Hierarchy) LLCStats() Stats { return h.llc.lvl.stats }
