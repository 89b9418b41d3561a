// Package tlb models per-core translation lookaside buffers: a small
// L1 dTLB backed by a larger unified L2 (STLB), both set-associative
// with true-LRU replacement. Entries carry a dirty flag so the
// simulator reproduces the x86 behaviour the paper leans on: the A bit
// is only set by a page walk (so clearing A without a shootdown delays
// its re-set until the TLB entry is evicted), while a store through a
// clean TLB entry forces a walk to set the PTE's D bit regardless of
// TLB hit status (§II-B, [16]).
package tlb

import (
	"fmt"

	"tieredmem/internal/mem"
	"tieredmem/internal/pagetable"
)

// Key is a translation's match key: vpn, which must fit in
// pagetable.VPNBits (36), with the address-space id asid (below 2^28)
// folded in above it. Sets index by the key's low bits, so the id moves
// no translation to another set, and a lookup still makes one compare
// per way. Entries, lookups, dirty marks and page flushes all take
// keys; a key with id 0 is the bare VPN.
func Key(asid uint32, vpn mem.VPN) mem.VPN { return vpn | mem.VPN(asid)<<pagetable.VPNBits }

// Entry is one cached translation.
type Entry struct {
	// VPN is the translation's match key (see Key).
	VPN      mem.VPN
	PFN      mem.PFN
	Writable bool
	// Dirty mirrors the PTE D bit at fill time; a store through an
	// entry with Dirty=false must perform a page walk to set the PTE
	// D bit and then sets Dirty here.
	Dirty bool
	gen   uint64 // the entry is valid while gen equals its level's
	lru   uint64
}

// Config sizes one TLB level.
type Config struct {
	Entries int
	Ways    int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 {
		return fmt.Errorf("tlb: entries (%d) and ways (%d) must be positive", c.Entries, c.Ways)
	}
	if c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb: entries (%d) not divisible by ways (%d)", c.Entries, c.Ways)
	}
	if sets := c.Entries / c.Ways; sets&(sets-1) != 0 {
		return fmt.Errorf("tlb: set count %d must be a power of two", sets)
	}
	return nil
}

// Stats counts hits and misses for one level.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// level is one set-associative TLB array stored flat: way w of set s
// is entries[s*ways+w]. An entry is valid while its gen equals the
// level's, so invalidating the whole level is one increment. A level's
// gen starts at 1; 0 marks an entry never filled or flushed alone.
type level struct {
	entries []Entry
	ways    int
	mask    uint64
	gen     uint64
	stamp   uint64
	stats   Stats
}

// newLevel builds a level from a validated config.
func newLevel(c Config) *level {
	nsets := c.Entries / c.Ways
	return &level{entries: make([]Entry, c.Entries), ways: c.Ways, mask: uint64(nsets - 1), gen: 1}
}

// set returns the ways vpn maps to.
func (l *level) set(vpn mem.VPN) []Entry {
	base := int(uint64(vpn)&l.mask) * l.ways
	return l.entries[base : base+l.ways]
}

func (l *level) lookup(vpn mem.VPN) *Entry {
	set := l.set(vpn)
	for i := range set {
		if set[i].gen == l.gen && set[i].VPN == vpn {
			l.stamp++
			set[i].lru = l.stamp
			l.stats.Hits++
			return &set[i]
		}
	}
	l.stats.Misses++
	return nil
}

// insert fills the translation into the first invalid way, else the
// least recently used one, and returns the filled slot.
func (l *level) insert(e Entry) *Entry {
	set := l.set(e.VPN)
	victim := 0
	for i := range set {
		if set[i].gen != l.gen {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	l.stamp++
	e.gen = l.gen
	e.lru = l.stamp
	set[victim] = e
	return &set[victim]
}

func (l *level) flushPage(vpn mem.VPN) bool {
	set := l.set(vpn)
	for i := range set {
		if set[i].gen == l.gen && set[i].VPN == vpn {
			set[i].gen = 0
			return true
		}
	}
	return false
}

// TLB is a two-level per-core translation cache.
type TLB struct {
	l1, l2 *level
	// Flushes counts full invalidations (context switches, IPI
	// shootdowns); FlushedPages counts single-page invalidations.
	Flushes      uint64
	FlushedPages uint64
}

// DefaultL1 and DefaultL2 size the TLB like a Zen-2-class core
// (64-entry L1 dTLB, 2048-entry L2 STLB).
var (
	DefaultL1 = Config{Entries: 64, Ways: 4}
	DefaultL2 = Config{Entries: 2048, Ways: 16}
)

// New builds a TLB with the given level configurations.
func New(l1, l2 Config) (*TLB, error) {
	if err := l1.Validate(); err != nil {
		return nil, err
	}
	if err := l2.Validate(); err != nil {
		return nil, err
	}
	return &TLB{l1: newLevel(l1), l2: newLevel(l2)}, nil
}

// MustNew is New for known-good configurations.
func MustNew(l1, l2 Config) *TLB {
	t, err := New(l1, l2)
	if err != nil {
		panic(err)
	}
	return t
}

// HitLevel identifies which TLB level served a translation.
type HitLevel int

const (
	// HitNone means both levels missed (a page walk follows).
	HitNone HitLevel = iota
	// HitL1 is a first-level dTLB hit (free).
	HitL1
	// HitL2 is an STLB hit (a couple of cycles).
	HitL2
)

// Lookup finds a cached translation and reports which level served
// it. On an L2 hit the entry is promoted into L1. The returned
// pointer stays valid until the next mutation and allows the core to
// update the Dirty flag in place.
func (t *TLB) Lookup(vpn mem.VPN) (*Entry, HitLevel) {
	if e := t.l1.lookup(vpn); e != nil {
		return e, HitL1
	}
	if e := t.l2.lookup(vpn); e != nil {
		// L1 victims are simply dropped; L2 is inclusive here. Return
		// the L1 copy so Dirty updates land in the closest level.
		return t.l1.insert(*e), HitL2
	}
	return nil, HitNone
}

// Insert caches a translation in both levels after a page walk.
func (t *TLB) Insert(e Entry) {
	t.l2.insert(e)
	t.l1.insert(e)
}

// MarkDirty updates the dirty flag of a cached translation in both
// levels (after the walk that set the PTE D bit).
func (t *TLB) MarkDirty(vpn mem.VPN) {
	if e := t.l1.lookup(vpn); e != nil {
		e.Dirty = true
		t.l1.stats.Hits--
	}
	if e := t.l2.lookup(vpn); e != nil {
		e.Dirty = true
		t.l2.stats.Hits--
	}
}

// FlushPage invalidates one translation (invlpg) in both levels.
func (t *TLB) FlushPage(vpn mem.VPN) {
	inL1 := t.l1.flushPage(vpn)
	inL2 := t.l2.flushPage(vpn)
	if inL1 || inL2 {
		t.FlushedPages++
	}
}

// FlushAll invalidates every translation (CR3 reload / IPI shootdown)
// by moving both levels to a new generation.
func (t *TLB) FlushAll() {
	t.l1.gen++
	t.l2.gen++
	t.Flushes++
}

// L1Stats returns hit/miss counts for the first level.
func (t *TLB) L1Stats() Stats { return t.l1.stats }

// L2Stats returns hit/miss counts for the second level.
func (t *TLB) L2Stats() Stats { return t.l2.stats }

// Misses returns the count of accesses that missed both levels, i.e.
// the page-walk count attributable to translation.
func (t *TLB) Misses() uint64 { return t.l2.stats.Misses }
