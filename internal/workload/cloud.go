package workload

import "tieredmem/internal/trace"

// ---------------------------------------------------------------------------
// Data-Analytics (CloudSuite: Mahout over a wiki dump, 1 master + 32
// workers): each worker streams its input partition sequentially,
// probes a Zipf-hot in-memory dictionary, and appends to an output
// buffer. The master polls small coordination state. Streaming input
// means many pages touched once; the dictionary concentrates heat.

type dataAnalytics struct {
	multiplex
}

// NewDataAnalytics builds the workload: 1 master + 8 workers (the
// paper's 32 workers scaled with the footprint), ~4 MiB input
// partition and 1 MiB dictionary per worker before scaling.
func NewDataAnalytics(cfg Config) Workload {
	const workers = 8
	inputBytes := cfg.scaled(4 << 20)
	dictBytes := cfg.scaled(1 << 20)
	d := &dataAnalytics{}
	d.name = "data-analytics"
	var zips zipfTables

	// Master process: hot coordination state only.
	master := newProc(cfg.FirstPID, cfg.Seed)
	coord := master.region(256 << 10)
	d.bytes += coord.size
	d.procs = append(d.procs, master)
	d.gens = append(d.gens, func() {
		off := master.rng.Uint64()
		master.push(ip(40), coord.at(off), trace.Load)
		if master.rng.Intn(8) == 0 {
			master.push(ip(41), coord.at(off), trace.Store)
		}
	})

	for i := 0; i < workers; i++ {
		p := newProc(cfg.FirstPID+1+i, cfg.Seed)
		input := p.region(inputBytes)
		dict := p.region(dictBytes)
		output := p.region(inputBytes / 2)
		d.bytes += input.size + dict.size + output.size
		zip := zipfGen(&zips, p.rng, 1.2, dict.size/64)
		pp := p
		var inCur, outCur uint64
		d.procs = append(d.procs, p)
		d.gens = append(d.gens, func() {
			// Stream 64 B of input, two Zipf dictionary probes, one
			// sequential output append.
			pp.push(ip(42), input.at(inCur), trace.Load)
			inCur += 64
			pp.push(ip(43), dict.at(zip.Uint64()*64), trace.Load)
			pp.push(ip(44), dict.at(zip.Uint64()*64), trace.Load)
			pp.push(ip(45), output.at(outCur), trace.Store)
			outCur += 16
		})
	}
	return d
}

// ---------------------------------------------------------------------------
// Data-Caching (CloudSuite: memcached with a Twitter dataset, 4
// servers x 8 clients): a GET/SET stream with Zipf-popular keys hashed
// into a big slab arena. 90% GETs read a value (a few lines); 10% SETs
// rewrite it. The hot key set concentrates on few pages while the
// arena's tail is huge and cold.

type dataCaching struct {
	multiplex
}

// NewDataCaching builds the workload: 4 server processes, each with a
// slab arena (default 16 MiB before scaling).
func NewDataCaching(cfg Config) Workload {
	const servers = 4
	arenaBytes := cfg.scaled(16 << 20)
	d := &dataCaching{}
	d.name = "data-caching"
	var zips zipfTables
	for i := 0; i < servers; i++ {
		p := newProc(cfg.FirstPID+i, cfg.Seed)
		arena := p.region(arenaBytes)
		hash := p.region(1 << 20) // hash table: hot
		d.bytes += arena.size + hash.size
		keys := arena.size / 256 // 256 B objects
		zip := zipfGen(&zips, p.rng, 1.01, keys-1)
		pp := p
		d.procs = append(d.procs, p)
		d.gens = append(d.gens, func() {
			key := zip.Uint64()
			// Hash-bucket probe, then the object (2 lines).
			slot := key * 0x9e3779b97f4a7c15 % (hash.size / 8)
			pp.push(ip(50), hash.at(slot*8), trace.Load)
			obj := key * 256
			if pp.rng.Intn(10) == 0 { // SET
				pp.push(ip(51), arena.at(obj), trace.Store)
				pp.push(ip(52), arena.at(obj+64), trace.Store)
			} else { // GET
				pp.push(ip(53), arena.at(obj), trace.Load)
				pp.push(ip(54), arena.at(obj+64), trace.Load)
			}
		})
	}
	return d
}

// ---------------------------------------------------------------------------
// Graph-Analytics (CloudSuite: GraphX PageRank over a Twitter graph,
// 1 master + 16 workers): iterative edge sweeps — the edge list is
// scanned sequentially while source ranks are read and destination
// accumulators written at power-law-random vertex positions.

type graphAnalytics struct {
	multiplex
}

// NewGraphAnalytics builds the workload: 1 master + 8 workers; each
// worker owns an edge partition (default 8 MiB) and a rank array
// (default 2 MiB).
func NewGraphAnalytics(cfg Config) Workload {
	const workers = 8
	edgeBytes := cfg.scaled(8 << 20)
	rankBytes := cfg.scaled(2 << 20)
	g := &graphAnalytics{}
	g.name = "graph-analytics"
	var zips zipfTables

	master := newProc(cfg.FirstPID, cfg.Seed)
	agg := master.region(512 << 10)
	g.bytes += agg.size
	g.procs = append(g.procs, master)
	g.gens = append(g.gens, func() {
		off := master.rng.Uint64()
		master.push(ip(60), agg.at(off), trace.Load)
		master.push(ip(61), agg.at(off+8), trace.Store)
	})

	for i := 0; i < workers; i++ {
		p := newProc(cfg.FirstPID+1+i, cfg.Seed)
		edges := p.region(edgeBytes)
		ranks := p.region(rankBytes)
		next := p.region(rankBytes)
		g.bytes += edges.size + ranks.size + next.size
		vertices := ranks.size / 8
		zip := zipfGen(&zips, p.rng, 1.15, vertices-1)
		pp := p
		var cur uint64
		g.procs = append(g.procs, p)
		g.gens = append(g.gens, func() {
			// One edge: sequential edge read, Zipf source-rank read
			// (hubs are popular), random destination accumulate.
			pp.push(ip(62), edges.at(cur), trace.Load)
			cur += 8
			src := zip.Uint64()
			pp.push(ip(63), ranks.at(src*8), trace.Load)
			dst := uniform(pp.rng, vertices)
			pp.push(ip(64), next.at(dst*8), trace.Load)
			pp.push(ip(65), next.at(dst*8), trace.Store)
		})
	}
	return g
}

// ---------------------------------------------------------------------------
// Web-Serving (CloudSuite: Elgg + Faban, 3 servers x 100 clients):
// request loops touch a Zipf-popular static-content corpus, a session
// table at random positions, and hot interpreter/runtime state. Many
// processes, modest footprint, strong skew — A-bit profiling sees most
// of it (Table IV: A-bit detects ~8x more pages than IBS here because
// most accesses hit in cache and IBS memory samples are rare).

type webServing struct {
	multiplex
}

// NewWebServing builds the workload: 3 server processes, each with a
// content corpus (default 8 MiB), session table (default 2 MiB), and
// hot runtime state.
func NewWebServing(cfg Config) Workload {
	const servers = 3
	corpusBytes := cfg.scaled(8 << 20)
	sessionBytes := cfg.scaled(2 << 20)
	w := &webServing{}
	w.name = "web-serving"
	var zips zipfTables
	for i := 0; i < servers; i++ {
		p := newProc(cfg.FirstPID+i, cfg.Seed)
		corpus := p.region(corpusBytes)
		sessions := p.region(sessionBytes)
		runtime := p.region(512 << 10)
		w.bytes += corpus.size + sessions.size + runtime.size
		pages := corpus.size >> 12
		zip := zipfGen(&zips, p.rng, 1.1, pages-1)
		pp := p
		w.procs = append(w.procs, p)
		w.gens = append(w.gens, func() {
			// One request: runtime state (hot), session lookup +
			// update, then stream 4 lines of one popular page.
			pp.push(ip(70), runtime.at(pp.rng.Uint64()%4096*8), trace.Load)
			sess := uniform(pp.rng, sessions.size/128)
			pp.push(ip(71), sessions.at(sess*128), trace.Load)
			pp.push(ip(72), sessions.at(sess*128), trace.Store)
			page := zip.Uint64() << 12
			for j := uint64(0); j < 4; j++ {
				pp.push(ip(73), corpus.at(page+j*64), trace.Load)
			}
		})
	}
	return w
}
