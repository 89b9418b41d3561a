package workload

import (
	"testing"

	"tieredmem/internal/trace"
)

// TestSliceMatchesGlobalStream is the partitioning-correctness proof:
// for every cell, the sliced workload's stream must equal the global
// stream restricted to the cell's processes, ref for ref. This is what
// lets the sharded pipeline claim its cells together execute exactly
// the references the sequential run would have produced.
func TestSliceMatchesGlobalStream(t *testing.T) {
	const cores = 3
	const total = 9000
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ScaleShift = 6
			global := MustNew(name, cfg)
			buf := make([]trace.Ref, total)
			global.Fill(buf)

			cells := Cells(MustNew(name, cfg), cores)
			for cell := 0; cell < cells; cell++ {
				sliced, err := Slice(MustNew(name, cfg), cell, cores)
				if err != nil {
					t.Fatalf("Slice(%s, %d, %d): %v", name, cell, cores, err)
				}
				owned := map[int]bool{}
				for _, pid := range sliced.Processes() {
					owned[pid] = true
				}
				var want []trace.Ref
				for _, r := range buf {
					if owned[r.PID] {
						want = append(want, r)
					}
				}
				got := make([]trace.Ref, len(want))
				sliced.Fill(got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("cell %d ref %d: got %+v want %+v", cell, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestSlicePartitionsProcesses checks the cells cover every process
// exactly once and the per-cell footprints stay positive.
func TestSlicePartitionsProcesses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScaleShift = 6
	const cores = 4
	global := MustNew("web-serving", cfg)
	cells := Cells(global, cores)
	seen := map[int]int{}
	for cell := 0; cell < cells; cell++ {
		sliced, err := Slice(MustNew("web-serving", cfg), cell, cores)
		if err != nil {
			t.Fatal(err)
		}
		if sliced.FootprintBytes() == 0 {
			t.Fatalf("cell %d has zero footprint", cell)
		}
		for _, pid := range sliced.Processes() {
			seen[pid]++
		}
		for _, r := range sliced.HugeRegions() {
			found := false
			for _, pid := range sliced.Processes() {
				if r.PID == pid {
					found = true
				}
			}
			if !found {
				t.Fatalf("cell %d lists huge range for foreign pid %d", cell, r.PID)
			}
		}
	}
	for _, pid := range global.Processes() {
		if seen[pid] != 1 {
			t.Fatalf("pid %d owned by %d cells, want exactly 1", pid, seen[pid])
		}
	}
}

// TestSliceRefsPartitionsTotal checks per-cell ref budgets sum to the
// global total for awkward remainders.
func TestSliceRefsPartitionsTotal(t *testing.T) {
	for _, tc := range []struct {
		total        int64
		procs, cores int
	}{
		{1000, 8, 4}, {1001, 8, 4}, {1007, 8, 3}, {7, 8, 4},
		{999983, 3, 8}, {12, 1, 1}, {100, 5, 5},
	} {
		cells := tc.cores
		if tc.procs < cells {
			cells = tc.procs
		}
		var sum int64
		for cell := 0; cell < cells; cell++ {
			sum += SliceRefs(tc.total, tc.procs, cell, tc.cores)
		}
		if sum != tc.total {
			t.Errorf("SliceRefs(%d, %d procs, %d cores): budgets sum to %d", tc.total, tc.procs, tc.cores, sum)
		}
	}
}

// TestSliceRejectsCombined pins the error path: weighted interleaves
// have no per-core decomposition.
func TestSliceRejectsCombined(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScaleShift = 6
	a := MustNew("gups", cfg)
	cfg2 := cfg
	cfg2.FirstPID = cfg.FirstPID + 64
	b := MustNew("web-serving", cfg2)
	c, err := Combine(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if Sliceable(c) {
		t.Fatal("combined workload reports sliceable")
	}
	if _, err := Slice(c, 0, 2); err == nil {
		t.Fatal("Slice(combined) succeeded, want error")
	}
	if _, err := Slice(MustNew("gups", cfg), 2, 2); err == nil {
		t.Fatal("Slice with cell >= cores succeeded, want error")
	}
}
