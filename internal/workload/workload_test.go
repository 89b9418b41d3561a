package workload

import (
	"testing"

	"tieredmem/internal/mem"
	"tieredmem/internal/order"
	"tieredmem/internal/trace"
)

func TestAllNamesConstruct(t *testing.T) {
	for _, name := range append(append([]string{}, Names...), "phase-shift") {
		w, err := New(name, DefaultConfig())
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if w.Name() != name {
			t.Errorf("Name() = %q, want %q", w.Name(), name)
		}
		if len(w.Processes()) == 0 {
			t.Errorf("%s: no processes", name)
		}
		if w.FootprintBytes() == 0 {
			t.Errorf("%s: zero footprint", name)
		}
	}
}

func TestUnknownName(t *testing.T) {
	if _, err := New("no-such-workload", DefaultConfig()); err == nil {
		t.Errorf("unknown name accepted")
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range Names {
		cfg := Config{Seed: 11, FirstPID: 100}
		w1 := MustNew(name, cfg)
		w2 := MustNew(name, cfg)
		a := make([]trace.Ref, 2048)
		b := make([]trace.Ref, 2048)
		w1.Fill(a)
		w2.Fill(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: streams diverge at ref %d: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	w1 := MustNew("gups", Config{Seed: 1, FirstPID: 100})
	w2 := MustNew("gups", Config{Seed: 2, FirstPID: 100})
	a := make([]trace.Ref, 512)
	b := make([]trace.Ref, 512)
	w1.Fill(a)
	w2.Fill(b)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Errorf("different seeds produced identical streams")
	}
}

func TestRefsStayInProcessSpace(t *testing.T) {
	for _, name := range append(append([]string{}, Names...), "phase-shift") {
		w := MustNew(name, Config{Seed: 3, FirstPID: 40})
		pids := map[int]bool{}
		for _, p := range w.Processes() {
			pids[p] = true
		}
		buf := make([]trace.Ref, 8192)
		w.Fill(buf)
		for _, r := range buf {
			if !pids[r.PID] {
				t.Fatalf("%s: ref from unknown pid %d", name, r.PID)
			}
			base := uint64(r.PID) * procSpacing
			if r.VAddr < base || r.VAddr >= base+procSpacing {
				t.Fatalf("%s: pid %d vaddr %#x outside its space", name, r.PID, r.VAddr)
			}
		}
	}
}

func TestScaleShiftShrinksFootprint(t *testing.T) {
	big := MustNew("gups", Config{Seed: 1, FirstPID: 100})
	small := MustNew("gups", Config{Seed: 1, FirstPID: 100, ScaleShift: 2})
	if small.FootprintBytes() >= big.FootprintBytes() {
		t.Errorf("ScaleShift did not shrink: %d vs %d", small.FootprintBytes(), big.FootprintBytes())
	}
	grown := MustNew("gups", Config{Seed: 1, FirstPID: 100, ScaleShift: -1})
	if grown.FootprintBytes() <= big.FootprintBytes() {
		t.Errorf("negative ScaleShift did not grow")
	}
}

func TestHPCWorkloadsDeclareHugeRegions(t *testing.T) {
	for _, name := range []string{"gups", "xsbench", "graph500", "lulesh"} {
		w := MustNew(name, DefaultConfig())
		if len(w.HugeRegions()) == 0 {
			t.Errorf("%s: no THP-backed regions", name)
		}
	}
	for _, name := range []string{"data-caching", "web-serving", "data-analytics", "graph-analytics"} {
		w := MustNew(name, DefaultConfig())
		if len(w.HugeRegions()) != 0 {
			t.Errorf("%s: cloud workload unexpectedly THP-backed", name)
		}
	}
}

func TestHugeHintChunkContainment(t *testing.T) {
	w := MustNew("gups", DefaultConfig())
	hint := HugeHintFor(w)
	r := w.HugeRegions()[0]
	// A VPN in the middle of the region: hinted.
	mid := mem.VPNOf((r.Start + r.End) / 2)
	if !hint(r.PID, mid) {
		t.Errorf("mid-region page not hinted")
	}
	// A VPN from another process: not hinted.
	if hint(r.PID+999, mid) {
		t.Errorf("foreign process hinted")
	}
	// The chunk straddling the region start (if unaligned) must be
	// rejected; test with an address just below the region.
	if r.Start >= 1<<21 {
		below := mem.VPNOf(r.Start - 1)
		chunk := (uint64(below) << mem.PageShift) &^ ((uint64(mem.HugePages) << mem.PageShift) - 1)
		if chunk < r.Start && hint(r.PID, below) {
			t.Errorf("page outside the region hinted")
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// Data-caching must produce a skewed page-popularity profile:
	// the most popular page gets far more than the mean.
	w := MustNew("data-caching", DefaultConfig())
	counts := map[uint64]int{}
	buf := make([]trace.Ref, 1<<16)
	w.Fill(buf)
	for _, r := range buf {
		counts[r.VAddr>>mem.PageShift]++
	}
	max, total := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	mean := float64(total) / float64(len(counts))
	if float64(max) < 8*mean {
		t.Errorf("page popularity not skewed: max %d vs mean %.1f", max, mean)
	}
}

func TestGUPSUniformity(t *testing.T) {
	// GUPS table accesses are uniform: the hottest table page must be
	// within a small factor of the mean (the idx region is hot by
	// design; restrict to table pages, which dominate).
	w := MustNew("gups", Config{Seed: 5, FirstPID: 100})
	counts := map[uint64]int{}
	buf := make([]trace.Ref, 1<<16)
	w.Fill(buf)
	for _, r := range buf {
		if r.Kind == trace.Store { // stores only hit the table
			counts[r.VAddr>>mem.PageShift]++
		}
	}
	max, total := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	mean := float64(total) / float64(len(counts))
	if float64(max) > 10*mean {
		t.Errorf("GUPS stores skewed: max %d vs mean %.2f", max, mean)
	}
}

func TestLULESHLocality(t *testing.T) {
	// LULESH sweeps sequentially: consecutive references from one
	// process should mostly be near each other.
	w := MustNew("lulesh", Config{Seed: 5, FirstPID: 100})
	buf := make([]trace.Ref, 1<<14)
	w.Fill(buf)
	// Locality is per access site: the same instruction's successive
	// references sweep sequentially even though sites alternate
	// between distant arrays.
	type site struct {
		pid int
		ip  uint64
	}
	lastBySite := map[site]uint64{}
	near, far := 0, 0
	for _, r := range buf {
		k := site{r.PID, r.IP}
		if last, ok := lastBySite[k]; ok {
			d := int64(r.VAddr) - int64(last)
			if d < 0 {
				d = -d
			}
			if d < 1<<16 {
				near++
			} else {
				far++
			}
		}
		lastBySite[k] = r.VAddr
	}
	if near < 2*far {
		t.Errorf("LULESH not local per site: near=%d far=%d", near, far)
	}
}

func TestPhaseShiftMovesHotSet(t *testing.T) {
	w := MustNew("phase-shift", Config{Seed: 5, FirstPID: 100, ScaleShift: 4})
	// Drain the init phase, then sample hot-page windows periodically:
	// the hot half flips every 500k per-process operations, so some
	// pair of windows must have little overlap.
	buf := make([]trace.Ref, 1<<16)
	for i := 0; i < 40; i++ {
		w.Fill(buf) // init phase plus warmup
	}
	var windows []map[uint64]bool
	for win := 0; win < 8; win++ {
		for i := 0; i < 10; i++ {
			w.Fill(buf)
		}
		pages := map[uint64]bool{}
		w.Fill(buf)
		for _, r := range buf {
			pages[r.VAddr>>mem.PageShift] = true
		}
		windows = append(windows, pages)
	}
	minOverlap := 1.0
	for i := 1; i < len(windows); i++ {
		overlap := 0
		for p := range windows[i] {
			if windows[0][p] {
				overlap++
			}
		}
		frac := float64(overlap) / float64(len(windows[i]))
		if frac < minOverlap {
			minOverlap = frac
		}
	}
	if minOverlap > 0.5 {
		t.Errorf("hot set never moved: min overlap with window 0 is %.2f", minOverlap)
	}
}

func TestFillExactLength(t *testing.T) {
	w := MustNew("web-serving", DefaultConfig())
	for _, n := range []int{1, 7, 1024} {
		buf := make([]trace.Ref, n)
		w.Fill(buf)
		for i, r := range buf {
			if r.PID == 0 && r.VAddr == 0 {
				t.Fatalf("ref %d of %d left zero", i, n)
			}
		}
	}
}

func TestCombineInterleavesByShare(t *testing.T) {
	a := MustNew("gups", Config{Seed: 1, FirstPID: 100})
	b := MustNew("web-serving", Config{Seed: 1, FirstPID: 300})
	w, err := CombineWeighted([]Workload{a, b}, []int{3, 1})
	if err != nil {
		t.Fatalf("CombineWeighted: %v", err)
	}
	buf := make([]trace.Ref, 4000)
	w.Fill(buf)
	var fromA, fromB int
	for _, r := range buf {
		if r.PID >= 300 {
			fromB++
		} else {
			fromA++
		}
	}
	ratio := float64(fromA) / float64(fromB)
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("share ratio = %.2f, want ~3", ratio)
	}
}

func TestCombineAggregatesMetadata(t *testing.T) {
	a := MustNew("gups", Config{Seed: 1, FirstPID: 100})
	b := MustNew("web-serving", Config{Seed: 1, FirstPID: 300})
	w, err := Combine(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "gups+web-serving" {
		t.Errorf("Name = %q", w.Name())
	}
	if len(w.Processes()) != len(a.Processes())+len(b.Processes()) {
		t.Errorf("process count wrong")
	}
	if w.FootprintBytes() != a.FootprintBytes()+b.FootprintBytes() {
		t.Errorf("footprint not summed")
	}
	if len(w.HugeRegions()) != len(a.HugeRegions())+len(b.HugeRegions()) {
		t.Errorf("huge regions not aggregated")
	}
}

func TestCombineRejectsPIDCollisions(t *testing.T) {
	a := MustNew("gups", Config{Seed: 1, FirstPID: 100})
	b := MustNew("web-serving", Config{Seed: 1, FirstPID: 100})
	if _, err := Combine(a, b); err == nil {
		t.Errorf("overlapping PIDs accepted")
	}
}

func TestCombineRejectsBadShares(t *testing.T) {
	a := MustNew("gups", Config{Seed: 1, FirstPID: 100})
	if _, err := CombineWeighted([]Workload{a}, []int{0}); err == nil {
		t.Errorf("zero share accepted")
	}
	if _, err := CombineWeighted([]Workload{a}, []int{1, 2}); err == nil {
		t.Errorf("share count mismatch accepted")
	}
	if _, err := CombineWeighted(nil, nil); err == nil {
		t.Errorf("empty combine accepted")
	}
}

func TestIdlersGoQuietAfterInit(t *testing.T) {
	w := NewIdlers(Config{Seed: 2, FirstPID: 700}, 2, 1<<20)
	// Init phase: 2 procs x 256 pages = 512 page-touch refs.
	buf := make([]trace.Ref, 600)
	w.Fill(buf)
	// After init every ref is the same hot page per process.
	quiet := make([]trace.Ref, 100)
	w.Fill(quiet)
	perPID := map[int]map[uint64]bool{}
	for _, r := range quiet {
		if perPID[r.PID] == nil {
			perPID[r.PID] = map[uint64]bool{}
		}
		perPID[r.PID][r.VAddr] = true
	}
	for _, pid := range order.SortedKeys(perPID) {
		if addrs := perPID[pid]; len(addrs) != 1 {
			t.Errorf("idler %d touches %d addresses when idle, want 1", pid, len(addrs))
		}
	}
}

func TestWriteSplitPhases(t *testing.T) {
	w := MustNew("write-split", Config{Seed: 2, FirstPID: 800, ScaleShift: 4})
	// Drain the cold streaming phase.
	buf := make([]trace.Ref, 1<<14)
	for i := 0; i < 4; i++ {
		w.Fill(buf)
	}
	w.Fill(buf)
	loads, stores := 0, 0
	for _, r := range buf {
		if r.Kind == trace.Store {
			stores++
		} else {
			loads++
		}
	}
	// Steady state alternates load/store.
	if loads == 0 || stores == 0 {
		t.Fatalf("steady state loads=%d stores=%d", loads, stores)
	}
	ratio := float64(loads) / float64(stores)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("load:store ratio %.2f, want ~1", ratio)
	}
}
