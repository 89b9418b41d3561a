package workload

import (
	"testing"

	"tieredmem/internal/mem"
	"tieredmem/internal/trace"
)

// FuzzSyntheticWorkloads drives the synthetic.go generators
// (phase-shift, write-split, idlers) with arbitrary seeds, scale
// shifts, PID bases, and idler shapes: construction and generation
// must never panic, and every emitted reference must stay consistent
// with the workload's own metadata:
//
//   - Fill writes exactly len(buf) refs, all from declared PIDs;
//   - the distinct 4 KiB pages touched never exceed FootprintBytes()
//     (footprints sum page-aligned region reservations, so they bound
//     the reachable page population);
//   - the stream is a pure function of the seed: rebuilding the same
//     config must reproduce identical references.
func FuzzSyntheticWorkloads(f *testing.F) {
	f.Add(int64(42), 0, 100, uint8(0), uint16(4), uint32(4<<20))
	f.Add(int64(0), 31, 0, uint8(1), uint16(0), uint32(0))
	f.Add(int64(-1), -40, 1<<20, uint8(2), uint16(999), uint32(1<<31-1))
	f.Add(int64(7), 100, -5, uint8(3), uint16(1), uint32(4096))

	f.Fuzz(func(t *testing.T, seed int64, scale, firstPID int, pick uint8, idlers uint16, heapBytes uint32) {
		cfg := Config{Seed: seed, ScaleShift: scale, FirstPID: firstPID}
		var w Workload
		switch pick % 3 {
		case 0:
			w = NewPhaseShift(cfg)
		case 1:
			w = NewWriteSplit(cfg)
		case 2:
			// Bound the process count so a fuzz case stays cheap; the
			// heap size is arbitrary (NewIdlers clamps internally).
			w = NewIdlers(cfg, int(idlers%64)+1, uint64(heapBytes))
		}

		pids := make(map[int]bool)
		for _, pid := range w.Processes() {
			pids[pid] = true
		}
		if len(pids) == 0 {
			t.Fatal("workload declares no processes")
		}
		foot := w.FootprintBytes()
		if foot == 0 {
			t.Fatal("zero footprint")
		}

		fill := func() []trace.Ref {
			buf := make([]trace.Ref, 2048)
			w.Fill(buf)
			return buf
		}
		refs := fill()
		pages := make(map[[2]uint64]struct{})
		for i, r := range refs {
			if !pids[r.PID] {
				t.Fatalf("ref %d from undeclared PID %d", i, r.PID)
			}
			if r.Kind != trace.Load && r.Kind != trace.Store {
				t.Fatalf("ref %d has kind %v", i, r.Kind)
			}
			pages[[2]uint64{uint64(r.PID), r.VAddr >> mem.PageShift}] = struct{}{}
		}
		// Footprint consistency: regions are page-aligned reservations
		// and every generated address lies inside one, so the touched
		// page population is bounded by the declared footprint.
		if got := uint64(len(pages)) * mem.PageSize; got > foot {
			t.Fatalf("touched %d bytes of distinct pages, footprint claims %d", got, foot)
		}

		// Determinism: an identically configured instance must emit
		// the identical stream (the same-seed contract every
		// experiment cell depends on).
		var w2 Workload
		switch pick % 3 {
		case 0:
			w2 = NewPhaseShift(cfg)
		case 1:
			w2 = NewWriteSplit(cfg)
		case 2:
			w2 = NewIdlers(cfg, int(idlers%64)+1, uint64(heapBytes))
		}
		if w2.FootprintBytes() != foot {
			t.Fatalf("footprint not deterministic: %d vs %d", w2.FootprintBytes(), foot)
		}
		buf2 := make([]trace.Ref, 2048)
		w2.Fill(buf2)
		for i := range refs {
			if refs[i] != buf2[i] {
				t.Fatalf("ref %d not deterministic: %+v vs %+v", i, refs[i], buf2[i])
			}
		}
	})
}
