package cache

import (
	"slices"
	"testing"
	"unsafe"
)

// TestSetRecordSize pins a set's record at 32 bytes: two fingerprint
// words, the recency order and the prefetched bits, two to a host line.
func TestSetRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(set{}); got != 32 {
		t.Errorf("set record is %d bytes, want 32", got)
	}
}

// FuzzRecencyMatchesList drives one set of 1 to 16 ways through hits
// and fills, and after every step compares the set's victim and whole
// recency order with a plain move-to-front list, and finds every filled
// line in its way. ways%16 + 1 is the way count. Each op byte is a
// step: with bit 0 set it fills a new line, else bits 1-7 pick a filled
// way to hit. Lines are numbered in fill order, so fingerprints repeat
// after 128 fills.
func FuzzRecencyMatchesList(f *testing.F) {
	f.Fuzz(func(t *testing.T, ways uint8, ops []byte) {
		n := 1 + int(ways%16)
		l := newLevel(Config{SizeBytes: n * LineSize, Ways: n})
		s := &l.sets[0]
		// list is the model's order, most recent first. It starts at
		// n-1 ... 0, so while a way is empty the tail is the first one.
		list := make([]int, n)
		for i := range list {
			list[i] = n - 1 - i
		}
		held := make([]uint64, n) // the line each filled way holds
		filled := 0
		var next uint64
		for step, op := range ops {
			w := int(op>>1) % max(filled, 1)
			if op&1 != 0 || filled == 0 {
				next++
				if _, got := l.probe(next); got >= 0 {
					t.Fatalf("step %d: new line %d found in way %d", step, next, got)
				}
				w = list[n-1]
				if filled < n && w != filled {
					t.Fatalf("step %d: victim %d, want the first empty way %d", step, w, filled)
				}
				l.fill(next, false)
				held[w] = next
				filled = min(filled+1, n)
			} else if hit, _ := l.lookup(held[w]); !hit {
				t.Fatalf("step %d: way %d's line %d missed", step, w, held[w])
			}
			at := slices.Index(list, w)
			copy(list[1:at+1], list[:at])
			list[0] = w
			if got := l.victim(s); got != list[n-1] {
				t.Fatalf("step %d: victim %d, list tail %d", step, got, list[n-1])
			}
			for i, want := range list {
				if got := int(s.order >> (4 * i) & 0xf); got != want {
					t.Fatalf("step %d: order %#x, list %v", step, s.order, list)
				}
			}
			for v := range filled {
				if _, got := l.probe(held[v]); got != v {
					t.Fatalf("step %d: line %d of way %d found in way %d", step, held[v], v, got)
				}
			}
		}
	})
}
