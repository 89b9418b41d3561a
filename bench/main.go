// Command bench is the repository benchmark. It measures how fast the
// simulator runs (simulated references per host second, set-up time and
// peak memory) on four placement workloads, next to the paper's two
// placement outcomes (tier-1 hit rate and speedup over first-touch),
// and checks the simulator's outputs while it does so. A traced mode
// replays each run through an outside-in copy of the placement loop
// and splits host time by layer.
//
// Run it from the repository root through bench/run.sh, which builds it
// with every cache under .bench_build:
//
//	bash bench/run.sh                                 # every workload, seed 42
//	bash bench/run.sh -workload phase-churn -seed 7   # one workload, held-out seed
//	bash bench/run.sh -trace 1                        # per-layer metrics
//	bash bench/run.sh -compare A.json B.json          # apply BENCHMARK.json's bounds
//
// README.md describes the workloads, metrics and bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tieredmem/internal/sim"
)

const (
	workDir = ".bench_build"
	// minReps keeps quartiles meaningful however long a rep takes.
	minReps = 3
	// setupReps is how many set-ups each untraced rep times: one set-up
	// takes milliseconds, so only a median of many is steady.
	setupReps = 15
	// childTimeout and runBudget keep one workload's run inside three
	// minutes on a slow host.
	childTimeout = 150 * time.Second
	runBudget    = 160 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all to run every workload round-robin")
	seed := fs.Int64("seed", 42, "workload seed (7 is held out)")
	seconds := fs.Int("seconds", 0, "measure each workload for at least this long, and at least 3 reps (0: BENCHMARK.json's run_seconds)")
	traced := fs.Int("trace", 0, "1 replays every rep through the traced placement loop and reports per-layer metrics")
	out := fs.String("out", filepath.Join(workDir, "result.json"), "result JSON path")
	compare := fs.Bool("compare", false, "compare result files A and B (the two arguments) against BENCHMARK.json's bounds")
	child := fs.Bool("child", false, "run one rep of -workload and print it as JSON (the benchmark starts itself this way)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *child {
		d, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		r, err := runRep(d, *seed, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", d.Name, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout)
	}
	var sel []workloadDef
	for _, n := range strings.Split(*name, ",") {
		if n == "all" {
			sel = append(sel, workloads...)
		} else if d, ok := findWorkload(n); ok {
			sel = append(sel, d)
		} else {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			return 2
		}
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	res := measure(spec, sel, *seed, *seconds, *traced == 1)
	if err := writeJSON(*out, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !printSummary(res, stdout) {
		return 1
	}
	return 0
}

// repResult is one rep of one workload as its child process reports
// it: both arms' results, the untraced wall time, and in traced mode
// the replayed results and per-layer metrics.
type repResult struct {
	Arms    [2]sim.PlacementResult  `json:"arms"`
	WallNS  int64                   `json:"wall_ns"`
	SetupNS []int64                 `json:"setup_ns,omitempty"`
	Replay  *[2]sim.PlacementResult `json:"replay,omitempty"`
	Layers  map[string]float64      `json:"layers,omitempty"`
	// RSSKB is the child's peak resident set, read by the parent.
	RSSKB int64 `json:"-"`
}

// runRep is the body of a child process: time set-up, run both arms
// untraced, and in traced mode replay both arms with spans.
func runRep(d workloadDef, seed int64, traced bool) (repResult, error) {
	runtime.GOMAXPROCS(d.threads())
	var r repResult
	for i := 0; !traced && i < setupReps; i++ {
		start := time.Now()
		for arm := range r.Arms {
			if _, _, err := d.runArm(seed, setupRefs, arm); err != nil {
				return r, fmt.Errorf("set-up: %w", err)
			}
		}
		r.SetupNS = append(r.SetupNS, int64(time.Since(start)))
	}
	var u untracedPass
	for arm := range r.Arms {
		// Collecting the previous phase's garbage first makes the peak
		// RSS the larger arm's own, not an accident of GC timing.
		runtime.GC()
		before := readGo()
		start := time.Now()
		res, stats, err := d.runArm(seed, d.Refs, arm)
		if err != nil {
			return r, fmt.Errorf("%s arm: %w", armLabels[arm], err)
		}
		wall := int64(time.Since(start))
		u.gc.add(readGo().since(before))
		u.wallNS += wall
		u.seqNS += wall - stats.WallNS + stats.BusyNS
		r.Arms[arm] = res
		if arm == policyArm {
			u.stats = stats
		}
	}
	r.WallNS = u.wallNS
	if !traced {
		return r, nil
	}
	tr := newTracer()
	var replay [2]sim.PlacementResult
	runtime.GC()
	start := time.Now()
	for arm := range replay {
		res, err := d.replayArm(tr, seed, d.Refs, arm)
		if err != nil {
			return r, fmt.Errorf("%s arm replay: %w", armLabels[arm], err)
		}
		replay[arm] = res
	}
	tracedNS := int64(time.Since(start))
	r.Replay = &replay
	r.Layers = layerMetrics(tr, replay, u, tracedNS)
	return r, writeSpans(filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", d.Name, seed)), d, seed, tr)
}

// writeSpans dumps a replay's runs and spans as JSON.
func writeSpans(path string, d workloadDef, seed int64, tr *tracer) error {
	data, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Runs     []runInfo `json:"runs"`
		Spans    []span    `json:"spans"`
	}{d.Name, seed, tr.runs, tr.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// startRep runs one rep in a child process of this binary, so each rep
// starts from a fresh heap and reports its own peak RSS.
func startRep(d workloadDef, seed int64, traced bool) (repResult, error) {
	var r repResult
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", d.Name, "-seed", strconv.FormatInt(seed, 10), "-trace", trace)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("child: %w", err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return r, fmt.Errorf("child output: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.RSSKB = ru.Maxrss
	}
	return r, nil
}

// measure runs reps round-robin over the selected workloads (rep 1 of
// each, then rep 2, ...) until every workload has run for at least
// seconds and minReps reps, and summarizes each workload.
func measure(spec benchSpec, sel []workloadDef, seed int64, seconds int, traced bool) result {
	tallies := make([]*tally, len(sel))
	for i, d := range sel {
		tallies[i] = &tally{def: d}
	}
	start := time.Now()
	for round := 1; ; round++ {
		roundStart := time.Now()
		done := round >= minReps
		for _, t := range tallies {
			repStart := time.Now()
			r, err := startRep(t.def, seed, traced)
			t.add(r, err, traced)
			t.wall += time.Since(repStart)
			done = done && t.wall >= time.Duration(seconds)*time.Second
		}
		elapsed := time.Since(start)
		if done || elapsed+time.Since(roundStart) > runBudget*time.Duration(len(sel)) {
			break
		}
	}
	res := result{
		Schema: 1,
		Host:   hostFactsNow(),
		Build:  buildFactsNow(),
		Run:    runFacts{Seed: seed, Seconds: seconds, Trace: traced, Shards: shardWidth(), WallS: time.Since(start).Seconds()},
	}
	metrics := spec.EndToEnd
	if traced {
		metrics = spec.PerLayer
	}
	for _, t := range tallies {
		res.Workloads = append(res.Workloads, t.summarize(seed, metrics))
	}
	return res
}
