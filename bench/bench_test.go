package main

import (
	"reflect"
	"regexp"
	"sort"
	"testing"

	"tieredmem/internal/sim"
)

// TestReplayMatchesRunPlacement pins the traced replay to the
// simulator: on every workload, including the faulted, observed and
// sharded one, both replayed arms equal the untraced run field for
// field, and the per-layer metrics derived from the replay are exactly
// BENCHMARK.json's per_layer set.
func TestReplayMatchesRunPlacement(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	const refs = 50_000
	for _, d := range workloads {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			tr := newTracer()
			var replay [2]sim.PlacementResult
			for arm := range replay {
				want, _, err := d.runArm(42, refs, arm)
				if err != nil {
					t.Fatalf("%s arm: %v", armLabels[arm], err)
				}
				got, err := d.replayArm(tr, 42, refs, arm)
				if err != nil {
					t.Fatalf("%s arm replay: %v", armLabels[arm], err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s arm: replay\n%+v\nwant\n%+v", armLabels[arm], got, want)
				}
				replay[arm] = got
			}
			layers := layerMetrics(tr, replay, untracedPass{seqNS: 1}, 1)
			var got, want []string
			for name := range layers {
				got = append(got, name)
			}
			sort.Strings(got)
			for _, m := range spec.PerLayer {
				want = append(want, m.Name)
			}
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("layer metrics\n%v\nBENCHMARK.json per_layer\n%v", got, want)
			}
		})
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the program: the same
// workloads in the same order, end-to-end metrics that are exactly the
// ones a rep produces, and names and sizes within the file's limits.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), program has %q", i, w.Name, len(w.Why), workloads[i].Name)
		}
	}
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(spec.EndToEnd), len(spec.PerLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		seen[w.Name] = true
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q unit %q: bad or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %q: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v", m.Name, m.Bound)
		}
	}

	// One synthetic rep through the tally: every end-to-end metric gets
	// a sample and no sample goes unnamed.
	d := workloads[0]
	r := repResult{WallNS: 1e9, SetupNS: []int64{1e6}, RSSKB: 1024}
	r.Arms[firstTouchArm] = sim.PlacementResult{Arm: "first-touch", Refs: d.Refs, DurationNS: 2, MemAccesses: 2, Tier1Hits: 1}
	r.Arms[policyArm] = sim.PlacementResult{Arm: "history/tmp", Refs: d.Refs, DurationNS: 1, MemAccesses: 2, Tier1Hits: 2, Promotions: 1}
	tl := &tally{def: d}
	tl.add(r, nil, false)
	w := tl.summarize(42, spec.EndToEnd)
	if w.Failed != 0 || len(w.Problems) != 0 {
		t.Fatalf("synthetic rep: %d failed, problems %v", w.Failed, w.Problems)
	}
}

// TestSelfTimes checks self time on a hand-built span tree:
//
//	run [0,100) ─┬─ a [10,40) ── c [15,25)
//	             └─ b [50,90)
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "c", Start: 15, End: 25, Parent: 1},
		{Name: "b", Start: 50, End: 90, Parent: 0},
	}
	got := selfTimes(spans)
	want := []int64{30, 20, 10, 40}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestVerdict covers each branch of the compare rule.
func TestVerdict(t *testing.T) {
	higher := metricSpec{Name: "refs_per_s", Better: "higher", Bound: 0.1}
	res := func(xs ...float64) metricResult {
		q1, q2, q3 := quartiles(xs)
		return metricResult{Median: q2, P25: q1, P75: q3, Samples: xs}
	}
	for _, c := range []struct {
		a, b metricResult
		want string
	}{
		{res(100, 101, 99), res(100, 100, 101), "unchanged"},
		{res(100, 101, 99), res(85, 86, 84), "worse"},
		{res(100, 101, 99), res(110, 111, 109), "better"},
		{res(100, 140, 60), res(98, 150, 50), "unresolved"},
		{res(0.5, 0.5, 0.5), res(0.499, 0.499, 0.499), "worse"},
		{res(0.5, 0.5, 0.5), res(0.5, 0.5, 0.5), "unchanged"},
	} {
		if got := verdict(higher, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a.Samples, c.b.Samples, got, c.want)
		}
	}
}
