// Command abpairs measures a performance claim the way the repository
// states one: alternating pairs of benchmark runs of two revisions,
// summarized per end-to-end metric. It uses only the standard library.
//
// Usage:
//
//	go run ./scripts/abpairs -base REV -head REV -workload W [-seed S] [-pairs N] [-dir DIR]
//
// abpairs checks out each revision in its own `git worktree` under DIR,
// builds its benchmark once there, then runs N pairs of
// `bash bench/run.sh -workload W -seed S` per workload and seed: the
// base first in odd pairs, the head first in even ones. -workload and
// -seed take comma-separated lists. Each run's median of every
// end-to-end metric that BENCHMARK.json names, plus failed_frac, is one
// pair's value.
//
// It writes DIR/abpairs.json, which records the command, both
// revisions, the host and every run, and DIR/abpairs.md, a Markdown
// table per workload and seed: the pairs' values, the two medians, the
// base's interquartile range, how many pairs the head won, and a
// two-sided sign-test p-value (ties dropped). The table is also printed
// on stdout. The worktrees are removed at the end, also when SIGINT or
// SIGTERM stops the run, which then exits 1 and kills the process
// group of every child, so no bench rep outlives it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchResult is the part of a bench/run.sh result file abpairs reads.
type benchResult struct {
	Host      json.RawMessage `json:"host"`
	Workloads []struct {
		Name      string `json:"name"`
		SimDigest string `json:"sim_digest"`
		Attempted int    `json:"attempted"`
		Failed    int    `json:"failed"`
		Metrics   []struct {
			Name   string  `json:"name"`
			Median float64 `json:"median"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// side is one run of one revision: each metric's median over the
// run's reps.
type side struct {
	Metrics   map[string]float64 `json:"metrics"`
	SimDigest string             `json:"sim_digest"`
	File      string             `json:"file"`
}

// pair is one base run and one head run, in the order First says.
type pair struct {
	Pair  int    `json:"pair"`
	First string `json:"first"`
	Base  side   `json:"base"`
	Head  side   `json:"head"`
}

// summary is one metric over a group's pairs.
type summary struct {
	metricSpec
	Base       []float64 `json:"base"`
	Head       []float64 `json:"head"`
	BaseMedian float64   `json:"base_median"`
	BaseP25    float64   `json:"base_p25"`
	BaseP75    float64   `json:"base_p75"`
	HeadMedian float64   `json:"head_median"`
	HeadP25    float64   `json:"head_p25"`
	HeadP75    float64   `json:"head_p75"`
	HeadBetter int       `json:"head_better"`
	HeadWorse  int       `json:"head_worse"`
	Ties       int       `json:"ties"`
	SignP      float64   `json:"sign_p"`
}

// group is every pair of one workload at one seed.
type group struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Pairs    []pair    `json:"pairs"`
	Metrics  []summary `json:"metrics"`
	// SameDigest reports whether every run of both revisions had one
	// sim_digest: a change that claims speed alone must keep it.
	SameDigest bool `json:"same_digest"`
}

type revision struct {
	Rev    string `json:"rev"`
	Commit string `json:"commit"`
}

type report struct {
	Schema  int             `json:"schema"`
	Command []string        `json:"command"`
	Base    revision        `json:"base"`
	Head    revision        `json:"head"`
	Host    json.RawMessage `json:"host"`
	Groups  []group         `json:"groups"`
}

// failedFrac is the share of arm-runs that failed; it joins the
// BENCHMARK.json metrics in every table.
var failedFrac = metricSpec{Name: "failed_frac", Unit: "ratio", Better: "lower"}

// run measures as args ask; cancelling ctx stops it as a signal does.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abpairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "base revision (the parent)")
	head := fs.String("head", "", "head revision (the change)")
	workloads := fs.String("workload", "", "bench workload, or a comma-separated list")
	seeds := fs.String("seed", "42", "bench seed, or a comma-separated list")
	pairs := fs.Int("pairs", 10, "alternating pairs per workload and seed")
	dir := fs.String("dir", "", "directory for the worktrees, run files and reports (default: a new temporary directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *head == "" || *workloads == "" || *pairs < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: abpairs -base REV -head REV -workload W[,W...] [-seed S[,S...]] [-pairs N] [-dir DIR]")
		return 2
	}
	var seedList []int64
	for _, s := range strings.Split(*seeds, ",") {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "abpairs: bad seed %q\n", s)
			return 2
		}
		seedList = append(seedList, v)
	}
	err := measure(ctx, *base, *head, strings.Split(*workloads, ","), seedList, *pairs, *dir, args, stdout, stderr)
	if ctx.Err() != nil {
		err = fmt.Errorf("interrupted: %w", ctx.Err())
	}
	if err != nil {
		fmt.Fprintln(stderr, "abpairs:", err)
		return 1
	}
	return 0
}

func measure(ctx context.Context, baseRev, headRev string, workloads []string, seeds []int64, pairs int, dir string,
	args []string, stdout, stderr io.Writer) (err error) {
	rep := report{Schema: 1, Command: append([]string{"abpairs"}, args...),
		Base: revision{Rev: baseRev}, Head: revision{Rev: headRev}}
	if rep.Base.Commit, err = git(ctx, "", "rev-parse", "--verify", baseRev+"^{commit}"); err != nil {
		return err
	}
	if rep.Head.Commit, err = git(ctx, "", "rev-parse", "--verify", headRev+"^{commit}"); err != nil {
		return err
	}
	if dir == "" {
		if dir, err = os.MkdirTemp("", "abpairs-"); err != nil {
			return err
		}
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return err
	}
	trees := map[string]string{"base": filepath.Join(dir, "base"), "head": filepath.Join(dir, "head")}
	for _, s := range []struct{ name, commit string }{{"base", rep.Base.Commit}, {"head", rep.Head.Commit}} {
		if _, err := git(ctx, "", "worktree", "add", "--detach", trees[s.name], s.commit); err != nil {
			return err
		}
		defer func(tree string) {
			// The removal must run after a cancel too, so it does not
			// inherit ctx's cancellation.
			if _, rmErr := git(context.WithoutCancel(ctx), "", "worktree", "remove", "--force", tree); rmErr != nil && err == nil {
				err = rmErr
			}
		}(trees[s.name])
		fmt.Fprintf(stderr, "abpairs: building the %s bench (%s)\n", s.name, short(s.commit))
		if err := build(ctx, trees[s.name]); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	specs, err := loadSpecs(filepath.Join(trees["head"], "BENCHMARK.json"))
	if err != nil {
		return err
	}
	for _, seed := range seeds {
		for _, w := range workloads {
			g := group{Workload: w, Seed: seed}
			for i := 1; i <= pairs; i++ {
				p := pair{Pair: i, First: "base"}
				order := []string{"base", "head"}
				if i%2 == 0 {
					p.First, order = "head", []string{"head", "base"}
				}
				for _, name := range order {
					file := filepath.Join(dir, "runs", fmt.Sprintf("%s-seed%d-pair%02d-%s.json", w, seed, i, name))
					fmt.Fprintf(stderr, "abpairs: %s seed %d pair %d/%d: %s\n", w, seed, i, pairs, name)
					s, host, err := benchRun(ctx, trees[name], w, seed, file, stderr)
					if err != nil {
						return fmt.Errorf("%s run of %s seed %d pair %d: %w", name, w, seed, i, err)
					}
					if rep.Host == nil {
						rep.Host = host
					}
					if name == "base" {
						p.Base = s
					} else {
						p.Head = s
					}
				}
				g.Pairs = append(g.Pairs, p)
			}
			g.summarize(specs)
			rep.Groups = append(rep.Groups, g)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "abpairs.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	md := rep.markdown()
	if err := os.WriteFile(filepath.Join(dir, "abpairs.md"), []byte(md), 0o644); err != nil {
		return err
	}
	_, err = io.WriteString(stdout, md)
	return err
}

// command prepares name to run in dir in a process group of its own,
// so that cancelling ctx kills the whole group: bench/run.sh execs the
// bench binary, which starts child reps of its own, and killing the
// direct child alone would leave them running.
func command(ctx context.Context, dir, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	// Bounds the wait for output pipes still held by a descendant that
	// left the group.
	cmd.WaitDelay = 10 * time.Second
	return cmd
}

func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := command(ctx, dir, "git", args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(string(out)))
	}
	return strings.TrimSpace(string(out)), nil
}

// build warms a worktree's bench binary: bench/run.sh builds it before
// the binary parses its flags, so -h builds it and exits. The pairs'
// own run.sh calls then find the build cached.
func build(ctx context.Context, tree string) error {
	out, _ := command(ctx, tree, "bash", "bench/run.sh", "-h").CombinedOutput() // -h exits 2 once the binary runs
	if _, err := os.Stat(filepath.Join(tree, ".bench_build", "bench")); err != nil {
		return fmt.Errorf("bench build failed: %s", strings.TrimSpace(string(out)))
	}
	return nil
}

// benchRun runs bench/run.sh once in tree and reads the result file
// back. A run whose reps failed still counts: its failed_frac says so.
func benchRun(ctx context.Context, tree, workload string, seed int64, file string, stderr io.Writer) (side, json.RawMessage, error) {
	cmd := command(ctx, tree, "bash", "bench/run.sh", "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-out", file)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	runErr := cmd.Run()
	s, host, err := readResult(file, workload)
	if err != nil {
		return side{}, nil, errors.Join(runErr, err)
	}
	return s, host, nil
}

func readResult(file, workload string) (side, json.RawMessage, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return side{}, nil, err
	}
	var r benchResult
	if err := json.Unmarshal(data, &r); err != nil {
		return side{}, nil, fmt.Errorf("%s: %w", file, err)
	}
	for _, w := range r.Workloads {
		if w.Name != workload {
			continue
		}
		s := side{Metrics: map[string]float64{}, SimDigest: w.SimDigest, File: file}
		for _, m := range w.Metrics {
			s.Metrics[m.Name] = m.Median
		}
		s.Metrics[failedFrac.Name] = 0
		if w.Attempted > 0 {
			s.Metrics[failedFrac.Name] = float64(w.Failed) / float64(w.Attempted)
		}
		return s, r.Host, nil
	}
	return side{}, nil, fmt.Errorf("%s: no result for workload %q", file, workload)
}

func loadSpecs(path string) ([]metricSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range spec.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, m.Name, m.Better)
		}
	}
	return append(spec.EndToEnd, failedFrac), nil
}

// summarize fills the group's per-metric summaries from its pairs.
func (g *group) summarize(specs []metricSpec) {
	g.SameDigest = true
	for _, p := range g.Pairs {
		if p.Base.SimDigest != g.Pairs[0].Base.SimDigest || p.Head.SimDigest != p.Base.SimDigest {
			g.SameDigest = false
		}
	}
	for _, m := range specs {
		s := summary{metricSpec: m}
		for _, p := range g.Pairs {
			b, h := p.Base.Metrics[m.Name], p.Head.Metrics[m.Name]
			s.Base = append(s.Base, b)
			s.Head = append(s.Head, h)
			switch d := h - b; {
			case d == 0:
				s.Ties++
			case (d < 0) == (m.Better == "lower"):
				s.HeadBetter++
			default:
				s.HeadWorse++
			}
		}
		s.BaseP25, s.BaseMedian, s.BaseP75 = quartiles(s.Base)
		s.HeadP25, s.HeadMedian, s.HeadP75 = quartiles(s.Head)
		s.SignP = signTest(s.HeadBetter, s.HeadWorse)
		g.Metrics = append(g.Metrics, s)
	}
}

// quartiles are Python's statistics.quantiles(xs, n=4), the exclusive
// method the benchmark judges its own spread by; one sample is its own
// quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// signTest is the two-sided sign test's p-value for wins against
// losses, ties already dropped: twice the binomial(n, 1/2) tail at the
// smaller count, capped at 1.
func signTest(wins, losses int) float64 {
	n, k := wins+losses, min(wins, losses)
	if n == 0 {
		return 1
	}
	tail := 0.0
	for i := 0; i <= k; i++ {
		tail += math.Exp(logChoose(n, i) - float64(n)*math.Ln2)
	}
	return math.Min(1, 2*tail)
}

func logChoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

func (r *report) markdown() string {
	var b strings.Builder
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "%s at seed %d: %d alternating pairs of `bash bench/run.sh -workload %s -seed %d`, base %s first in odd pairs, head %s.\n\n",
			g.Workload, g.Seed, len(g.Pairs), g.Workload, g.Seed, short(r.Base.Commit), short(r.Head.Commit))
		b.WriteString("| metric | pairs, base → head | base median (IQR) | head median (IQR) | head better | sign-test p |\n")
		b.WriteString("|---|---|---|---|---:|---:|\n")
		for _, s := range g.Metrics {
			vals := make([]string, len(s.Base))
			for i := range s.Base {
				vals[i] = num(s.Base[i]) + " → " + num(s.Head[i])
			}
			fmt.Fprintf(&b, "| `%s` (%s, %s is better) | %s | %s (%s–%s) | %s (%s–%s) | %d/%d | %.3g |\n",
				s.Name, s.Unit, s.Better, strings.Join(vals, ", "),
				num(s.BaseMedian), num(s.BaseP25), num(s.BaseP75),
				num(s.HeadMedian), num(s.HeadP25), num(s.HeadP75),
				s.HeadBetter, len(s.Base), s.SignP)
		}
		digest := "one `sim_digest` in every run"
		if !g.SameDigest {
			digest = "**`sim_digest` differs between runs**"
		}
		fmt.Fprintf(&b, "\n%s.\n\n", digest)
	}
	return b.String()
}

// num renders a value with four significant digits and no exponent.
func num(v float64) string {
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	decimals := max(0, 3-int(math.Floor(math.Log10(math.Abs(v)))))
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

func short(commit string) string { return commit[:min(len(commit), 7)] }
