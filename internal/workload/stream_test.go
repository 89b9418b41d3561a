package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"tieredmem/internal/testalloc"
	"tieredmem/internal/trace"
)

// pinnedGens is every generator New builds: the Table III set plus the
// two synthetic ones the benchmark drives (phase-churn and write-audit).
var pinnedGens = append(append([]string{}, Names...), "phase-shift", "write-split")

// streamHash hashes refs Fill calls of batch refs each from w with
// fnv-1a 64, four little-endian uint64s per ref: PID, IP, VAddr, Kind.
func streamHash(w Workload, fills, batch int) uint64 {
	h := fnv.New64a()
	buf := make([]trace.Ref, batch)
	var rec [32]byte
	for i := 0; i < fills; i++ {
		w.Fill(buf)
		for _, r := range buf {
			binary.LittleEndian.PutUint64(rec[0:], uint64(r.PID))
			binary.LittleEndian.PutUint64(rec[8:], r.IP)
			binary.LittleEndian.PutUint64(rec[16:], r.VAddr)
			binary.LittleEndian.PutUint64(rec[24:], uint64(r.Kind))
			h.Write(rec[:])
		}
	}
	return h.Sum64()
}

// TestStreamPins fixes every generator's first 2^20 refs at seed 42.
// The hashes were taken from the math/rand.Zipf build, so any sampler
// or queue change that moves a single ref fails here. Phase-shift
// needs the full 2^20: its first 524,288 refs are the init stream and
// draw no Zipf variates.
func TestStreamPins(t *testing.T) {
	want := map[string]uint64{
		"data-analytics":  0x661e6acd9c897b42,
		"data-caching":    0x9146cd05c17cc8b7,
		"graph500":        0x1a50ae7ff0a7d260,
		"graph-analytics": 0x11a677be0420be66,
		"gups":            0xe79c2ce3c1e812f2,
		"lulesh":          0x91c980b762c13c88,
		"web-serving":     0xf867687be4c932aa,
		"xsbench":         0xdb0e420513771b31,
		"phase-shift":     0x8af7dd1f382fbbbc,
		"write-split":     0xdf019c46e84b9714,
	}
	for _, name := range pinnedGens {
		got := streamHash(MustNew(name, Config{Seed: 42, FirstPID: 100}), 1024, 1024)
		if got != want[name] {
			t.Errorf("%s: stream hash %016x, want %016x", name, got, want[name])
		}
	}
}

// TestFillZeroAlloc checks that a generator's steady-state Fill, warmed
// past its start-up stream (phase-shift's 524,288-ref init is the
// longest), allocates nothing. The colocation experiment's weighted
// busy+idle mix is pinned too: a combined workload hands its parts one
// reference at a time.
func TestFillZeroAlloc(t *testing.T) {
	for _, name := range pinnedGens {
		fillZeroAlloc(t, MustNew(name, Config{Seed: 42, FirstPID: 100}))
	}
	busy := MustNew("data-caching", Config{Seed: 42, FirstPID: 100})
	idle := NewIdlers(Config{Seed: 42, FirstPID: 500}, 16, 4<<20)
	mix, err := CombineWeighted([]Workload{busy, idle}, []int{64, 1})
	if err != nil {
		t.Fatalf("CombineWeighted: %v", err)
	}
	fillZeroAlloc(t, mix)
}

func fillZeroAlloc(t *testing.T, w Workload) {
	t.Helper()
	buf := make([]trace.Ref, 1024)
	for i := 0; i < 1<<19/len(buf)+16; i++ {
		w.Fill(buf)
	}
	// One run of 64 calls, read as a total (TestAllocsPinsTakeOneRun).
	n := testalloc.Count(func() {
		for range 64 {
			w.Fill(buf)
		}
	})
	if n != 0 {
		t.Errorf("%s: 64 steady-state Fill calls allocate %v times", w.Name(), n)
	}
}
