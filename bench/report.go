package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"tieredmem/internal/sim"
)

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and bounds are defined.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []namedWhy   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory under run.sh and the parent of bench/ under go test
// or go run.
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		data, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	}
	if err != nil {
		return spec, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

type result struct {
	Schema    int              `json:"schema"`
	Host      hostFacts        `json:"host"`
	Build     buildFacts       `json:"build"`
	Run       runFacts         `json:"run"`
	Workloads []workloadResult `json:"workloads"`
}

type hostFacts struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

type buildFacts struct {
	Revision string `json:"vcs_revision"`
	Modified string `json:"vcs_modified"`
}

type runFacts struct {
	Seed    int64   `json:"seed"`
	Seconds int     `json:"seconds"`
	Trace   bool    `json:"trace"`
	Shards  int     `json:"shards"`
	WallS   float64 `json:"wall_s"`
}

type workloadResult struct {
	Name         string         `json:"name"`
	Config       string         `json:"config"`
	ConfigDigest string         `json:"config_digest"`
	RefsPerArm   int            `json:"refs_per_arm"`
	Reps         int            `json:"reps"`
	SimDigest    string         `json:"sim_digest"`
	Attempted    int            `json:"attempted"`
	Failed       int            `json:"failed"`
	Problems     []string       `json:"problems,omitempty"`
	Metrics      []metricResult `json:"metrics"`
}

type metricResult struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	P25     float64   `json:"p25"`
	P75     float64   `json:"p75"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func hostFactsNow() hostFacts {
	h := hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUModel: "unknown"}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return h
}

func buildFactsNow() buildFacts {
	b := buildFacts{Revision: "unknown", Modified: "unknown"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Modified = s.Value
		}
	}
	return b
}

func digest(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// tally collects one workload's reps and the outcome of every output
// check. A check failure marks the arm-run it concerns as failed.
type tally struct {
	def       workloadDef
	wall      time.Duration
	attempted int
	failed    int
	problems  []string
	first     [2][]byte // rep 0's arms, JSON-encoded
	samples   map[string][]float64
	reps      int
}

func (t *tally) fail(arms int, format string, args ...any) {
	t.failed += arms
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

func (t *tally) add(r repResult, err error, traced bool) {
	t.attempted += len(r.Arms)
	if err != nil {
		t.fail(len(r.Arms), "rep %d: %v", t.reps, err)
		t.reps++
		return
	}
	if t.samples == nil {
		t.samples = map[string][]float64{}
	}
	ok := true
	for arm, res := range r.Arms {
		enc, _ := json.Marshal(res) // a PlacementResult always encodes
		if err := checkArm(t.def, arm, res); err != nil {
			t.fail(1, "rep %d %s arm: %v", t.reps, armLabels[arm], err)
			ok = false
		} else if t.first[arm] == nil {
			t.first[arm] = enc
		} else if !bytes.Equal(enc, t.first[arm]) {
			t.fail(1, "rep %d %s arm: result differs from the first rep's", t.reps, armLabels[arm])
			ok = false
		}
		if traced {
			if r.Replay == nil {
				t.fail(1, "rep %d %s arm: no replay", t.reps, armLabels[arm])
				ok = false
			} else if rep, _ := json.Marshal(r.Replay[arm]); !bytes.Equal(rep, enc) {
				t.fail(1, "rep %d %s arm: traced replay differs from the untraced run", t.reps, armLabels[arm])
				ok = false
			}
		}
	}
	t.reps++
	if !ok {
		return
	}
	add := func(name string, v float64) { t.samples[name] = append(t.samples[name], v) }
	if traced {
		for _, name := range sortedKeys(r.Layers) {
			add(name, r.Layers[name])
		}
		return
	}
	ft, pol := r.Arms[firstTouchArm], r.Arms[policyArm]
	add("refs_per_s", float64(ft.Refs+pol.Refs)/time.Duration(r.WallNS).Seconds())
	for _, ns := range r.SetupNS {
		add("setup_s", time.Duration(ns).Seconds())
	}
	add("peak_rss_mb", float64(r.RSSKB)/1024)
	add("sim_hitrate", pol.Hitrate())
	add("sim_speedup", ratio(float64(ft.DurationNS), float64(pol.DurationNS)))
	add("sim_mig_ok_frac", migOKFrac(pol))
}

// migOKFrac is the share of the mover's attempts that moved a page: 1
// when it attempted nothing.
func migOKFrac(r sim.PlacementResult) float64 {
	moved := float64(r.Promotions + r.Demotions)
	if moved+float64(r.Failed) == 0 {
		return 1
	}
	return moved / (moved + float64(r.Failed))
}

// checkArm checks one arm's result against what the run must satisfy
// whatever the simulator's numbers are.
func checkArm(d workloadDef, arm int, r sim.PlacementResult) error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	check(r.Refs == d.Refs, "ran %d refs, want %d", r.Refs, d.Refs)
	check(r.DurationNS > 0, "duration %d", r.DurationNS)
	check(r.MemAccesses > 0 && r.Tier1Hits <= r.MemAccesses, "tier-1 hits %d of %d memory accesses", r.Tier1Hits, r.MemAccesses)
	parts := r.FailedCapacity + r.FailedPinned + r.FailedVanished + r.FailedSplit + r.AbortedDirty
	check(parts == r.Failed, "failure partition sums to %d, failed is %d", parts, r.Failed)
	check(r.RetrySucceeded <= r.Retried, "%d retries succeeded of %d", r.RetrySucceeded, r.Retried)
	check(r.TxCommitted+r.AbortedDirty <= r.TxStarted, "%d+%d transactions resolved of %d started", r.TxCommitted, r.AbortedDirty, r.TxStarted)
	check(d.TxMig || r.TxStarted == 0, "%d transactions without -txmig", r.TxStarted)
	check(d.Faults != "" || r.FaultsInjected == 0, "%d faults injected without a fault spec", r.FaultsInjected)
	if arm == policyArm {
		check(r.Arm == "history/tmp", "arm %q", r.Arm)
		check(r.Promotions > 0, "no promotions")
		check(d.Faults == "" || r.FaultsInjected > 0, "no faults injected")
	} else {
		check(r.Arm == "first-touch", "arm %q", r.Arm)
		check(r.Promotions+r.Demotions+r.Failed == 0, "first-touch arm migrated")
	}
	return errors.Join(errs...)
}

// summarize turns a workload's samples into the metrics named in
// BENCHMARK.json. A metric the reps did not produce, or one they
// produced that BENCHMARK.json does not name, is a problem.
func (t *tally) summarize(seed int64, specs []metricSpec) workloadResult {
	cfg := t.def.configString(seed)
	w := workloadResult{
		Name: t.def.Name, Config: cfg, ConfigDigest: digest([]byte(cfg)), RefsPerArm: t.def.Refs,
		Reps: t.reps, SimDigest: digest(append(append([]byte(nil), t.first[0]...), t.first[1]...)),
	}
	known := map[string]bool{}
	for _, m := range specs {
		known[m.Name] = true
		xs := t.samples[m.Name]
		if len(xs) == 0 {
			t.problems = append(t.problems, "no samples of "+m.Name)
		}
		q1, q2, q3 := quartiles(xs)
		w.Metrics = append(w.Metrics, metricResult{Name: m.Name, Unit: m.Unit, Median: q2, P25: q1, P75: q3, N: len(xs), Samples: xs})
	}
	for _, n := range sortedKeys(t.samples) {
		if !known[n] {
			t.problems = append(t.problems, "metric "+n+" is not in BENCHMARK.json")
		}
	}
	w.Attempted, w.Failed, w.Problems = t.attempted, t.failed, t.problems
	return w
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary prints every metric as `workload metric value unit p25
// p75 n`, each workload's failed fraction and sim digest, and, last,
// the one-line JSON summary. It reports whether every check passed.
func printSummary(res result, w io.Writer) bool {
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: true, Metrics: map[string]valueUnit{}}
	for _, wl := range res.Workloads {
		for _, m := range wl.Metrics {
			fmt.Fprintf(w, "%-12s %-32s %14.6g %-12s %14.6g %14.6g %3d\n", wl.Name, m.Name, m.Median, m.Unit, m.P25, m.P75, m.N)
			key := m.Name
			if len(res.Workloads) > 1 {
				key = wl.Name + "/" + m.Name
			}
			line.Metrics[key] = valueUnit{m.Median, m.Unit}
		}
		fmt.Fprintf(w, "%-12s %-32s %14.6g %-12s %14s %14s %3d\n", wl.Name, "failed_frac", ratio(float64(wl.Failed), float64(wl.Attempted)), "ratio", "", "", wl.Attempted)
		fmt.Fprintf(w, "%-12s %-32s %14s\n", wl.Name, "sim_digest", wl.SimDigest)
		for _, p := range wl.Problems {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", wl.Name, p)
		}
		line.Attempted += wl.Attempted
		line.Failed += wl.Failed
		line.Correct = line.Correct && wl.Failed == 0 && len(wl.Problems) == 0
	}
	enc, _ := json.Marshal(line) // plain numbers and strings always encode
	fmt.Fprintln(w, string(enc))
	return line.Correct
}

// compareFiles prints, for every workload and end-to-end metric of
// result files a (before) and b (after), both medians, both spreads
// and a verdict under BENCHMARK.json's bounds. It exits 1 when any
// metric got worse.
func compareFiles(spec benchSpec, a, b string, w io.Writer) int {
	var ra, rb result
	for _, f := range []struct {
		path string
		dst  *result
	}{{a, &ra}, {b, &rb}} {
		data, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(data, f.dst)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	worse := false
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %10s %10s %s\n", "workload", "metric", "median_a", "median_b", "iqr_a", "iqr_b", "verdict")
	for _, wa := range ra.Workloads {
		wb, ok := findResult(rb, wa.Name)
		if !ok {
			fmt.Fprintf(w, "%-12s missing from %s\n", wa.Name, b)
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, oka := findMetric(wa, m.Name)
			mb, okb := findMetric(wb, m.Name)
			if !oka || !okb {
				fmt.Fprintf(w, "%-12s %-16s missing\n", wa.Name, m.Name)
				continue
			}
			v := verdict(m, ma, mb)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-12s %-16s %14.6g %14.6g %10.4g %10.4g %s\n", wa.Name, m.Name, ma.Median, mb.Median, ma.P75-ma.P25, mb.P75-mb.P25, v)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func findResult(r result, name string) (workloadResult, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadResult{}, false
}

func findMetric(w workloadResult, name string) (metricResult, bool) {
	for _, m := range w.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricResult{}, false
}

// verdict judges b against a for one metric:
//   - a metric that reads the same on every rep of each side (the
//     deterministic sim_* metrics) is judged exactly: any change counts;
//   - worse: b's median is worse than a's by more than the bound;
//   - better: every b sample beats every a sample, or b's median beats
//     a's by more than a's own spread;
//   - unresolved: the spread of either side is wider than the bound;
//   - unchanged otherwise.
func verdict(m metricSpec, a, b metricResult) string {
	if a.Median == 0 || len(a.Samples) == 0 || len(b.Samples) == 0 {
		return "unresolved"
	}
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	gain := sign * (b.Median - a.Median) / math.Abs(a.Median)
	if constant(a.Samples) && constant(b.Samples) {
		switch {
		case gain > 0:
			return "better"
		case gain < 0:
			return "worse"
		}
		return "unchanged"
	}
	spreadA := (a.P75 - a.P25) / math.Abs(a.Median)
	spread := math.Max(spreadA, (b.P75-b.P25)/math.Abs(a.Median))
	switch {
	case gain < -m.Bound:
		return "worse"
	case separated(sign, a.Samples, b.Samples):
		return "better"
	case spread > m.Bound:
		return "unresolved"
	case gain > spreadA:
		return "better"
	}
	return "unchanged"
}

func constant(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// separated reports whether every b sample is better than every a
// sample in the direction sign.
func separated(sign float64, a, b []float64) bool {
	worstB, bestA := math.Inf(1), math.Inf(-1)
	for _, x := range b {
		worstB = math.Min(worstB, sign*x)
	}
	for _, x := range a {
		bestA = math.Max(bestA, sign*x)
	}
	return worstB > bestA
}
