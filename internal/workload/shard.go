package workload

import "fmt"

// mux exposes the embedded multiplex so Slice can re-partition any
// generator built on the round-robin interleave (every Table III
// generator is). Promotion makes each concrete generator satisfy the
// sliceable interface below without per-type code.
func (m *multiplex) mux() *multiplex { return m }

// sliceable is the internal capability Slice needs: access to the
// round-robin process interleave. combined does not implement it —
// weighted interleaves have no per-core decomposition that preserves
// the global stream order.
type sliceable interface{ mux() *multiplex }

// Slice restricts a freshly built workload to the processes a single
// simulated core would run: with the workload's processes pinned
// round-robin across cores (process i on core i mod cores, the same
// rule cpu.Machine uses for scheduling), the returned workload emits
// exactly the global reference stream filtered to core `cell`'s
// processes, in the global order. This is the partitioning rule of the
// sharded placement pipeline (PERFORMANCE.md): because the global Fill is
// itself a one-ref round-robin over processes in ascending index
// order, the kept processes (still in ascending index order, still
// round-robin) reproduce the restriction of the global stream without
// generating the refs the cell does not own.
//
// Slice mutates and returns w's own generator state (processes carry
// live RNGs), so the caller must pass a freshly constructed instance
// and must not use w afterwards. Workloads without a round-robin
// interleave (Combine/CombineWeighted) are rejected.
func Slice(w Workload, cell, cores int) (Workload, error) {
	if cores < 1 || cell < 0 || cell >= cores {
		return nil, fmt.Errorf("workload: bad slice cell %d of %d cores", cell, cores)
	}
	s, ok := w.(sliceable)
	if !ok {
		return nil, fmt.Errorf("workload: %q cannot be sliced per core (no round-robin interleave)", w.Name())
	}
	m := s.mux()
	if len(m.procs) == 0 {
		return nil, fmt.Errorf("workload: %q has no processes", w.Name())
	}
	out := &multiplex{name: fmt.Sprintf("%s/cell%d", m.name, cell)}
	kept := map[int]bool{}
	for i, p := range m.procs {
		if i%cores != cell {
			continue
		}
		out.procs = append(out.procs, p)
		out.gens = append(out.gens, m.gens[i])
		out.bytes += p.nextVA - p.base
		kept[p.pid] = true
	}
	if len(out.procs) == 0 {
		return nil, fmt.Errorf("workload: cell %d of %d cores owns none of %q's %d processes",
			cell, cores, m.name, len(m.procs))
	}
	for _, r := range m.huge {
		if kept[r.PID] {
			out.huge = append(out.huge, r)
		}
	}
	return out, nil
}

// SliceRefs returns how many of the first total references of the
// global round-robin stream belong to core `cell` when procs processes
// are pinned process i -> core i mod cores. Reference k of the global
// stream comes from process k mod procs, so process i contributes
// total/procs references plus one more when i < total mod procs; the
// cell's budget sums its processes' contributions. Budgets over all
// cells partition total exactly, which is what keeps sharded runs'
// total reference counts equal to the sequential run's.
func SliceRefs(total int64, procs, cell, cores int) int64 {
	if total <= 0 || procs <= 0 || cores < 1 || cell < 0 || cell >= cores {
		return 0
	}
	var refs int64
	for i := cell; i < procs; i += cores {
		refs += total / int64(procs)
		if int64(i) < total%int64(procs) {
			refs++
		}
	}
	return refs
}

// Cells returns the number of non-empty per-core partitions a
// workload decomposes into on a machine with the given core count:
// min(cores, processes). Cells beyond the process count would own no
// stream at all, so the sharded pipeline simply does not create them.
func Cells(w Workload, cores int) int {
	if n := len(w.Processes()); cores > n {
		return n
	}
	return cores
}

// Sliceable reports whether Slice can partition the workload.
func Sliceable(w Workload) bool {
	_, ok := w.(sliceable)
	return ok
}

// compile-time check: a slice of a multiplex is itself a Workload.
var _ Workload = (*multiplex)(nil)
