package tlb

import (
	"testing"

	"tieredmem/internal/mem"
)

// refSlot, refLevel and refTLB are the array-of-sets TLB the flat,
// generation-flushed one replaced, kept as the plain reference the
// differential tests compare against: a valid bit per entry, a full
// flush that walks every entry, and an L2 hit promoted by inserting
// into L1 and looking the entry up again.
type refSlot struct {
	e     Entry
	valid bool
	lru   uint64
}

type refLevel struct {
	sets  [][]refSlot
	mask  uint64
	stamp uint64
	stats Stats
}

func newRefLevel(c Config) *refLevel {
	nsets := c.Entries / c.Ways
	l := &refLevel{sets: make([][]refSlot, nsets), mask: uint64(nsets - 1)}
	for i := range l.sets {
		l.sets[i] = make([]refSlot, c.Ways)
	}
	return l
}

func (l *refLevel) lookup(vpn mem.VPN) *Entry {
	set := l.sets[uint64(vpn)&l.mask]
	for i := range set {
		if set[i].valid && set[i].e.VPN == vpn {
			l.stamp++
			set[i].lru = l.stamp
			l.stats.Hits++
			return &set[i].e
		}
	}
	l.stats.Misses++
	return nil
}

func (l *refLevel) insert(e Entry) {
	set := l.sets[uint64(e.VPN)&l.mask]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	l.stamp++
	set[victim] = refSlot{e: e, valid: true, lru: l.stamp}
}

func (l *refLevel) flushPage(vpn mem.VPN) bool {
	set := l.sets[uint64(vpn)&l.mask]
	for i := range set {
		if set[i].valid && set[i].e.VPN == vpn {
			set[i].valid = false
			return true
		}
	}
	return false
}

func (l *refLevel) flushAll() {
	for _, set := range l.sets {
		for i := range set {
			set[i].valid = false
		}
	}
}

type refTLB struct {
	l1, l2                *refLevel
	flushes, flushedPages uint64
}

func (t *refTLB) Lookup(vpn mem.VPN) (*Entry, HitLevel) {
	if e := t.l1.lookup(vpn); e != nil {
		return e, HitL1
	}
	if e := t.l2.lookup(vpn); e != nil {
		t.l1.insert(*e)
		l1e := t.l1.lookup(vpn)
		t.l1.stats.Hits--
		return l1e, HitL2
	}
	return nil, HitNone
}

func (t *refTLB) Insert(e Entry) {
	t.l2.insert(e)
	t.l1.insert(e)
}

func (t *refTLB) MarkDirty(vpn mem.VPN) {
	if e := t.l1.lookup(vpn); e != nil {
		e.Dirty = true
		t.l1.stats.Hits--
	}
	if e := t.l2.lookup(vpn); e != nil {
		e.Dirty = true
		t.l2.stats.Hits--
	}
}

func (t *refTLB) FlushPage(vpn mem.VPN) {
	if t.l1.flushPage(vpn) || t.l2.flushPage(vpn) {
		t.flushedPages++
	}
	t.l2.flushPage(vpn)
}

func (t *refTLB) FlushAll() {
	t.l1.flushAll()
	t.l2.flushAll()
	t.flushes++
}

// public is what a caller sees of an entry: the zero Entry for a
// miss, else the entry without its bookkeeping.
func public(e *Entry) Entry {
	if e == nil {
		return Entry{}
	}
	return Entry{VPN: e.VPN, PFN: e.PFN, Writable: e.Writable, Dirty: e.Dirty}
}

// tlbPair drives the flat TLB and the reference in lockstep.
type tlbPair struct {
	tl  *TLB
	ref *refTLB
}

func newTLBPair(l1, l2 Config) tlbPair {
	return tlbPair{MustNew(l1, l2), &refTLB{l1: newRefLevel(l1), l2: newRefLevel(l2)}}
}

// apply runs one operation on both TLBs, then compares what it
// returned and every counter. The low three bits of op, mod 5, pick
// Lookup, a page walk's fill (Insert after both levels missed, as the
// core does), MarkDirty, FlushPage or FlushAll. Bit 7 makes a Lookup
// hit set Dirty through the returned pointer; bit 6 makes a fill
// insert a dirty entry.
func (p tlbPair) apply(t *testing.T, step int, op byte, vpn mem.VPN) {
	t.Helper()
	switch (op & 7) % 5 {
	case 0:
		e, lvl := p.tl.Lookup(vpn)
		re, rlvl := p.ref.Lookup(vpn)
		if lvl != rlvl || public(e) != public(re) {
			t.Fatalf("step %d: Lookup(%d) = %+v %v, reference %+v %v", step, vpn, public(e), lvl, public(re), rlvl)
		}
		if e != nil && op&0x80 != 0 {
			e.Dirty, re.Dirty = true, true
		}
	case 1:
		_, lvl := p.tl.Lookup(vpn)
		_, rlvl := p.ref.Lookup(vpn)
		if lvl != rlvl {
			t.Fatalf("step %d: fill probe of %d hit %v, reference %v", step, vpn, lvl, rlvl)
		}
		if lvl == HitNone {
			e := Entry{VPN: vpn, PFN: mem.PFN(vpn)*3 + 1, Writable: vpn&1 == 0, Dirty: op&0x40 != 0}
			p.tl.Insert(e)
			p.ref.Insert(e)
		}
	case 2:
		p.tl.MarkDirty(vpn)
		p.ref.MarkDirty(vpn)
	case 3:
		p.tl.FlushPage(vpn)
		p.ref.FlushPage(vpn)
	case 4:
		p.tl.FlushAll()
		p.ref.FlushAll()
	}
	if p.tl.L1Stats() != p.ref.l1.stats || p.tl.L2Stats() != p.ref.l2.stats ||
		p.tl.Flushes != p.ref.flushes || p.tl.FlushedPages != p.ref.flushedPages {
		t.Fatalf("step %d (op %#x, vpn %d): L1 %+v L2 %+v flushes %d/%d, reference L1 %+v L2 %+v flushes %d/%d",
			step, op, vpn, p.tl.L1Stats(), p.tl.L2Stats(), p.tl.Flushes, p.tl.FlushedPages,
			p.ref.l1.stats, p.ref.l2.stats, p.ref.flushes, p.ref.flushedPages)
	}
}

var smallL1, smallL2 = Config{Entries: 8, Ways: 2}, Config{Entries: 32, Ways: 4}

// FuzzTLBMatchesReference drives one operation sequence through the
// flat TLB and the reference, on the small or the default geometry.
// Each operation takes three bytes: the op byte (see apply) and a
// little-endian VPN.
func FuzzTLBMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, small bool, ops []byte) {
		l1, l2 := DefaultL1, DefaultL2
		if small {
			l1, l2 = smallL1, smallL2
		}
		p := newTLBPair(l1, l2)
		for step := 0; len(ops) >= 3; step++ {
			p.apply(t, step, ops[0], mem.VPN(ops[1])|mem.VPN(ops[2])<<8)
			ops = ops[3:]
		}
	})
}

// TestTLBMatchesReferenceLong runs long pseudo-random sequences on both
// geometries: fills and lookups over a footprint three times the L2,
// half of them near the previous VPN, with dirtying, page flushes and
// the occasional full flush.
func TestTLBMatchesReferenceLong(t *testing.T) {
	for _, g := range [][2]Config{{smallL1, smallL2}, {DefaultL1, DefaultL2}} {
		p := newTLBPair(g[0], g[1])
		footprint := uint64(3 * g[1].Entries)
		x := uint64(0x9e3779b97f4a7c15)
		var vpn uint64
		for step := 0; step < 200_000; step++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x&1 == 0 {
				vpn = x >> 16 % footprint
			} else {
				vpn = (vpn + x>>8&3) % footprint
			}
			var op byte
			switch r := x >> 32 % 100; {
			case r < 1:
				op = 4 // FlushAll
			case r < 4:
				op = 3 // FlushPage
			case r < 14:
				op = 2 // MarkDirty
			case r < 55:
				op = 0 // Lookup
			default:
				op = 1 // fill
			}
			p.apply(t, step, op|byte(x>>40)&0xc0, mem.VPN(vpn))
		}
	}
}
