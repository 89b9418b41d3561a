package workload

import "tieredmem/internal/trace"

// Synthetic (non-Table III) generators used by tests, examples, and
// ablation benchmarks.

// phaseShift is a workload designed to defeat first-touch placement:
// an initialization phase streams once over a large cold region
// (filling the fast tier with pages that will never be touched again),
// after which the main loop hammers a Zipf-hot working set allocated
// later. Adaptive placement (TMP + History) recovers; static
// first-touch cannot. It also alternates hot halves mid-run so
// reactive policies keep working.
type phaseShift struct {
	multiplex
}

// NewPhaseShift builds the synthetic phase-shift workload: 4
// processes, each with a cold init region (default 8 MiB) and two hot
// regions (default 2 MiB each) that trade places periodically.
func NewPhaseShift(cfg Config) Workload {
	const procs = 4
	initBytes := cfg.scaled(8 << 20)
	hotBytes := cfg.scaled(2 << 20)
	ps := &phaseShift{}
	ps.name = "phase-shift"
	var zips zipfTables
	for i := 0; i < procs; i++ {
		p := newProc(cfg.FirstPID+i, cfg.Seed)
		initRegion := p.region(initBytes)
		hotA := p.region(hotBytes)
		hotB := p.region(hotBytes)
		ps.bytes += initRegion.size + hotA.size + hotB.size
		zip := zipfGen(&zips, p.rng, 1.2, hotBytes/64-1)
		pp := p
		var initCur uint64
		var issued uint64
		ps.procs = append(ps.procs, p)
		ps.gens = append(ps.gens, func() {
			issued++
			if initCur < initRegion.size {
				// Init: stream the cold region once, 64 B at a time.
				pp.push(ip(80), initRegion.at(initCur), trace.Store)
				initCur += 64
				return
			}
			// Main loop: Zipf-hot region, switching halves every
			// 500k operations per process.
			hot := hotA
			if (issued/500_000)%2 == 1 {
				hot = hotB
			}
			off := zip.Uint64() * 64
			pp.push(ip(81), hot.at(off), trace.Load)
			if pp.rng.Intn(4) == 0 {
				pp.push(ip(82), hot.at(off), trace.Store)
			}
		})
	}
	return ps
}

// idlers models consolidation background noise: processes that faulted
// in a sizeable heap once (a cold cache, a parked VM) and then barely
// touch it. They inflate the machine's page-table population without
// contributing load — exactly what TMP's resource filter (>=5% CPU or
// >=10% memory) exists to exclude from A-bit walks.
type idlers struct {
	multiplex
}

// NewIdlers builds n near-idle processes, each with a heapBytes cold
// region streamed once at startup and a single hot page touched
// afterwards. Heaps are clamped to 1 GiB: the generator's point is
// page-table population, and anything larger would overflow the
// per-process address budget under footprint growth.
func NewIdlers(cfg Config, n int, heapBytes uint64) Workload {
	if n < 1 {
		n = 1
	}
	const maxIdlerHeap = 1 << 30
	heapBytes = cfg.scaled(heapBytes)
	if heapBytes > maxIdlerHeap {
		heapBytes = maxIdlerHeap
	}
	id := &idlers{}
	id.name = "idlers"
	for i := 0; i < n; i++ {
		p := newProc(cfg.FirstPID+i, cfg.Seed)
		heap := p.region(heapBytes)
		id.bytes += heap.size
		pp := p
		var cur uint64
		id.procs = append(id.procs, p)
		id.gens = append(id.gens, func() {
			if cur < heap.size {
				// Startup: fault the heap in, one touch per page.
				pp.push(ip(90), heap.at(cur), trace.Store)
				cur += 4096
				return
			}
			// Idle: poll one hot page.
			pp.push(ip(91), heap.at(0), trace.Load)
		})
	}
	return id
}

// writeSplit is a workload for write-aware placement studies: two
// regions of equal access frequency, one read-only (lookup tables) and
// one write-hot (an in-place log). On media with asymmetric write cost
// (NVM writes ~2x reads here, far worse on real PCM) a policy that
// biases dirty pages into DRAM outperforms a read-rank-only one at
// equal hitrates — the CLOCK-DWF argument ([32] in the paper).
type writeSplit struct {
	multiplex
}

// NewWriteSplit builds the workload: 4 processes, each with a
// read-hot region and a write-hot region (default 4 MiB each) plus a
// large cold filler that forces tier pressure.
func NewWriteSplit(cfg Config) Workload {
	const procs = 4
	hotBytes := cfg.scaled(4 << 20)
	coldBytes := cfg.scaled(16 << 20)
	ws := &writeSplit{}
	ws.name = "write-split"
	var zips zipfTables
	for i := 0; i < procs; i++ {
		p := newProc(cfg.FirstPID+i, cfg.Seed)
		readHot := p.region(hotBytes)
		writeHot := p.region(hotBytes)
		cold := p.region(coldBytes)
		ws.bytes += readHot.size + writeHot.size + cold.size
		zipR := zipfGen(&zips, p.rng, 1.1, hotBytes/64-1)
		zipW := zipfGen(&zips, p.rng, 1.1, hotBytes/64-1)
		pp := p
		var coldCur uint64
		ws.procs = append(ws.procs, p)
		ws.gens = append(ws.gens, func() {
			if coldCur < cold.size {
				// Stream the cold filler once so first-touch wastes
				// fast-tier capacity on it.
				pp.push(ip(95), cold.at(coldCur), trace.Store)
				coldCur += 4096
				return
			}
			pp.push(ip(96), readHot.at(zipR.Uint64()*64), trace.Load)
			pp.push(ip(97), writeHot.at(zipW.Uint64()*64), trace.Store)
		})
	}
	return ws
}
