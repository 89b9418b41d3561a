package workload

import (
	"math/rand"

	"tieredmem/internal/trace"
)

// Synthetic instruction addresses: one per logical access site so the
// stride prefetcher can train per-site like a real PC-indexed one.
const ipBase = 0x400000

func ip(site int) uint64 { return ipBase + uint64(site)*16 }

// ---------------------------------------------------------------------------
// GUPS (HPCC RandomAccess): uniform random read-modify-writes over a
// large table — the canonical worst case for locality. Paper config:
// 4 GB input, 8 processes.

type gups struct {
	multiplex
}

// NewGUPS builds the GUPS workload: 8 processes, each performing
// random 8-byte RMW updates over its private table (default 8 MiB per
// process before scaling).
func NewGUPS(cfg Config) Workload {
	const procs = 8
	tableBytes := cfg.scaled(8 << 20)
	g := &gups{}
	g.name = "gups"
	for i := 0; i < procs; i++ {
		p := newProc(cfg.FirstPID+i, cfg.Seed)
		table := p.region(tableBytes)
		idx := p.region(64 << 10) // small hot index/stride state
		g.markHuge(p, table)
		g.bytes += table.size + idx.size
		pp := p
		g.procs = append(g.procs, p)
		g.gens = append(g.gens, func() {
			// ran = table[random]; table[random] ^= ran — one load
			// and one store to the same random location, plus a hot
			// read of the little index state.
			off := pp.rng.Uint64()
			addr := table.at(off &^ 7)
			pp.push(ip(0), idx.at(off%idx.size), trace.Load)
			pp.push(ip(1), addr, trace.Load)
			pp.push(ip(2), addr, trace.Store)
		})
	}
	return g
}

// ---------------------------------------------------------------------------
// XSBench (OpenMC macroscopic-cross-section proxy): each lookup picks
// a material from tiny hot tables, binary-searches a huge sorted
// energy grid, then gathers a handful of nuclide rows at unrelated
// random offsets. Read-only, enormous footprint, low reuse — the
// workload where IBS finds far more hot pages than the A-bit (the
// paper's Table IV shows IBS detecting ~40x more pages here).

type xsbench struct {
	multiplex
}

// NewXSBench builds the XSBench workload: 8 processes, each with a
// large energy grid (default 16 MiB) and nuclide data (default 16 MiB).
func NewXSBench(cfg Config) Workload {
	const procs = 8
	gridBytes := cfg.scaled(16 << 20)
	nuclideBytes := cfg.scaled(16 << 20)
	x := &xsbench{}
	x.name = "xsbench"
	for i := 0; i < procs; i++ {
		p := newProc(cfg.FirstPID+i, cfg.Seed)
		grid := p.region(gridBytes)
		nuclides := p.region(nuclideBytes)
		materials := p.region(32 << 10) // hot material tables
		x.markHuge(p, grid)
		x.markHuge(p, nuclides)
		x.bytes += grid.size + nuclides.size + materials.size
		pp := p
		x.procs = append(x.procs, p)
		x.gens = append(x.gens, func() {
			// Material lookup: two hot reads.
			m := pp.rng.Uint64()
			pp.push(ip(10), materials.at(m), trace.Load)
			pp.push(ip(11), materials.at(m*31), trace.Load)
			// Binary search over the sorted energy grid: log2(n)
			// probes that converge on a random target.
			lo, hi := uint64(0), grid.size/8
			target := pp.rng.Uint64() % hi
			for lo < hi {
				mid := (lo + hi) / 2
				pp.push(ip(12), grid.at(mid*8), trace.Load)
				if mid < target {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			// Gather 5 nuclide rows at unrelated random offsets.
			for j := 0; j < 5; j++ {
				pp.push(ip(13+j), nuclides.at(pp.rng.Uint64()&^63), trace.Load)
			}
		})
	}
	return x
}

// ---------------------------------------------------------------------------
// Graph500 (level-synchronous BFS): frontier vertices are read
// sequentially, their CSR edge lists scanned sequentially, and the
// visited/parent arrays hit at random vertex positions. Power-law
// degrees concentrate edge traffic on hub pages.

type graph500 struct {
	multiplex
}

// NewGraph500 builds the BFS workload: 8 processes, each over a
// private synthetic power-law graph (default ~6 MiB of CSR arrays per
// process before scaling).
func NewGraph500(cfg Config) Workload {
	const procs = 8
	vertexCount := int(cfg.scaled(256 << 10)) // default 256 Ki vertices
	edgesPerVertex := 8
	g := &graph500{}
	g.name = "graph500"
	var zips zipfTables
	for i := 0; i < procs; i++ {
		p := newProc(cfg.FirstPID+i, cfg.Seed)
		edgeCount := vertexCount * edgesPerVertex
		offsets := p.region(uint64(vertexCount+1) * 8)
		edges := p.region(uint64(edgeCount) * 4)
		visited := p.region(uint64(vertexCount) / 8)
		parents := p.region(uint64(vertexCount) * 4)
		g.markHuge(p, offsets)
		g.markHuge(p, edges)
		g.markHuge(p, parents)
		g.bytes += offsets.size + edges.size + visited.size + parents.size

		// Degree sequence: Zipf hubs. Precompute the CSR offset of
		// every vertex once (generator state, not simulated memory).
		degZipf := zipfGen(&zips, p.rng, 1.3, uint64(edgesPerVertex*64))
		vOffsets := make([]uint64, vertexCount+1)
		var acc uint64
		for v := 0; v < vertexCount; v++ {
			vOffsets[v] = acc
			acc += degZipf.Uint64() + 1
		}
		vOffsets[vertexCount] = acc

		pp := p
		// The frontier is read from pos instead of resliced from the
		// front, so both buffers keep their capacity across levels and
		// a steady-state call allocates nothing.
		state := struct {
			frontier []int
			pos      int
			next     []int
		}{frontier: []int{0}}
		g.procs = append(g.procs, p)
		g.gens = append(g.gens, func() {
			if state.pos == len(state.frontier) {
				// BFS exhausted: restart from a new random root.
				state.frontier = append(state.frontier[:0], int(pp.rng.Int63())%vertexCount)
				state.pos = 0
			}
			v := state.frontier[state.pos]
			state.pos++
			// Read the vertex's offset entry (mostly sequential).
			pp.push(ip(20), offsets.at(uint64(v)*8), trace.Load)
			start, end := vOffsets[v], vOffsets[v+1]
			if end-start > 64 {
				end = start + 64 // cap hub degree per visit
			}
			for e := start; e < end; e++ {
				// Sequential edge-list scan.
				pp.push(ip(21), edges.at(e*4), trace.Load)
				// Random neighbor: visited-bitmap probe + parent
				// write for a fraction of discoveries.
				n := int(pp.rng.Int63()) % vertexCount
				pp.push(ip(22), visited.at(uint64(n)/8), trace.Load)
				if pp.rng.Intn(4) == 0 {
					pp.push(ip(23), visited.at(uint64(n)/8), trace.Store)
					pp.push(ip(24), parents.at(uint64(n)*4), trace.Store)
					if len(state.next) < 1024 {
						state.next = append(state.next, n)
					}
				}
			}
			if state.pos == len(state.frontier) {
				state.frontier, state.next = state.next, state.frontier[:0]
				state.pos = 0
			}
		})
	}
	return g
}

// ---------------------------------------------------------------------------
// LULESH (DOE shock-hydro proxy): structured 3-D stencil sweeps over
// nodal and element arrays — highly local, phase-regular, almost
// entirely prefetchable. The paper's Table IV shows both methods
// seeing few distinct pages here.

type lulesh struct {
	multiplex
}

// NewLULESH builds the stencil workload: 8 processes, each sweeping a
// private structured grid (default ~12 MiB of arrays per process).
func NewLULESH(cfg Config) Workload {
	const procs = 8
	side := 1 << 5 // 32^3 elements by default (scaled via bytes below)
	arrayBytes := cfg.scaled(4 << 20)
	l := &lulesh{}
	l.name = "lulesh"
	for i := 0; i < procs; i++ {
		p := newProc(cfg.FirstPID+i, cfg.Seed)
		coords := p.region(arrayBytes)  // nodal coordinates
		fields := p.region(arrayBytes)  // element fields (energy, pressure)
		scratch := p.region(arrayBytes) // per-phase temporaries
		l.markHuge(p, coords)
		l.markHuge(p, fields)
		l.markHuge(p, scratch)
		l.bytes += coords.size + fields.size + scratch.size
		plane := uint64(side * side * 8)
		pp := p
		cursor := uint64(0)
		phase := 0
		l.procs = append(l.procs, p)
		l.gens = append(l.gens, func() {
			// One stencil element update: read the element and its
			// +/- plane neighbors, read nodal coords, write the
			// field and a scratch temporary. Cursor advances
			// sequentially and wraps per phase.
			e := cursor * 8
			cursor++
			if e+plane >= fields.size {
				cursor = 0
				phase = (phase + 1) % 3
			}
			switch phase {
			case 0: // CalcForceForNodes-like: coords + fields -> scratch
				pp.push(ip(30), coords.at(e), trace.Load)
				pp.push(ip(31), fields.at(e), trace.Load)
				pp.push(ip(32), fields.at(e+plane), trace.Load)
				// Indirect nodelist gather: element-to-node
				// indirection jumps around the nodal array, the part
				// of LULESH the prefetcher cannot cover.
				gather := (e*7 + uint64(pp.rng.Intn(64))*plane) % coords.size
				pp.push(ip(38), coords.at(gather), trace.Load)
				pp.push(ip(33), scratch.at(e), trace.Store)
			case 1: // CalcVelocity-like: scratch -> coords
				pp.push(ip(34), scratch.at(e), trace.Load)
				pp.push(ip(35), coords.at(e), trace.Store)
			default: // EOS-like: fields in place, plus a material
				// lookup through the indirection table.
				pp.push(ip(36), fields.at(e), trace.Load)
				gather := (e*13 + uint64(pp.rng.Intn(64))*plane) % fields.size
				pp.push(ip(39), fields.at(gather), trace.Load)
				pp.push(ip(37), fields.at(e), trace.Store)
			}
		})
	}
	return l
}

// reference the rand import in a helper used by cloud.go too.
func uniform(rng *rand.Rand, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return rng.Uint64() % n
}
