package main

import (
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestQuartilesExclusive pins the quartile method to the benchmark's
// own (Python's statistics.quantiles, exclusive).
func TestQuartilesExclusive(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{7, 1, 3, 5, 9}, 2, 5, 8},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestSignTest checks the two-sided p-values against the binomial
// tails: 10 of 10 is 2/1024, 9 of 10 is 22/1024, a tie is 1.
func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		wins, losses int
		p            float64
	}{
		{10, 0, 2.0 / 1024},
		{0, 10, 2.0 / 1024},
		{9, 1, 22.0 / 1024},
		{3, 0, 0.25},
		{5, 5, 1},
		{0, 0, 1},
	} {
		if got := signTest(c.wins, c.losses); math.Abs(got-c.p) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.wins, c.losses, got, c.p)
		}
	}
}

// TestSummarizeDirections: a lower value wins a lower-is-better metric
// and loses a higher-is-better one; equal values are ties, dropped from
// the sign test.
func TestSummarizeDirections(t *testing.T) {
	mk := func(rss, rate float64, digest string) side {
		return side{Metrics: map[string]float64{"peak_rss_mb": rss, "refs_per_s": rate}, SimDigest: digest}
	}
	g := group{Pairs: []pair{
		{Pair: 1, First: "base", Base: mk(31, 6, "d"), Head: mk(22, 6, "d")},
		{Pair: 2, First: "head", Base: mk(32, 7, "d"), Head: mk(23, 6, "d")},
		{Pair: 3, First: "base", Base: mk(30, 6, "d"), Head: mk(31, 7, "d")},
	}}
	g.summarize([]metricSpec{{Name: "peak_rss_mb", Better: "lower"}, {Name: "refs_per_s", Better: "higher"}})
	rss, rate := g.Metrics[0], g.Metrics[1]
	if rss.HeadBetter != 2 || rss.HeadWorse != 1 || rss.Ties != 0 || rss.BaseMedian != 31 || rss.HeadMedian != 23 {
		t.Errorf("peak_rss_mb summary = %+v", rss)
	}
	if rate.HeadBetter != 1 || rate.HeadWorse != 1 || rate.Ties != 1 || rate.SignP != 1 {
		t.Errorf("refs_per_s summary = %+v", rate)
	}
	if !g.SameDigest {
		t.Error("one digest in every run reads as differing")
	}
	g.Pairs[2].Head.SimDigest = "e"
	g.Metrics = nil
	g.summarize(nil)
	if g.SameDigest {
		t.Error("a head run with another digest reads as the same")
	}
}

// TestReadResult reads a bench result file: each metric's median, and
// failed_frac from the attempted and failed counts.
func TestReadResult(t *testing.T) {
	file := filepath.Join(t.TempDir(), "r.json")
	body := `{"host":{"num_cpu":2},"workloads":[
	 {"name":"cloud-steady","sim_digest":"x","attempted":6,"failed":0,"metrics":[{"name":"peak_rss_mb","median":12}]},
	 {"name":"write-audit","sim_digest":"20b1","attempted":8,"failed":2,"metrics":[{"name":"peak_rss_mb","median":22.5,"p25":22}]}]}`
	if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s, host, err := readResult(file, "write-audit")
	if err != nil {
		t.Fatal(err)
	}
	if s.Metrics["peak_rss_mb"] != 22.5 || s.Metrics["failed_frac"] != 0.25 || s.SimDigest != "20b1" {
		t.Errorf("read %+v", s)
	}
	if string(host) != `{"num_cpu":2}` {
		t.Errorf("host = %s", host)
	}
	if _, _, err := readResult(file, "phase-churn"); err == nil {
		t.Error("a workload missing from the file read without error")
	}
}

// TestMarkdownTable renders one group: a row per metric with the pairs,
// both medians with their IQRs, the wins and the p-value.
func TestMarkdownTable(t *testing.T) {
	g := group{Workload: "write-audit", Seed: 42}
	for i := 1; i <= 10; i++ {
		g.Pairs = append(g.Pairs, pair{Pair: i,
			Base: side{Metrics: map[string]float64{"peak_rss_mb": 31 + float64(i%3)/10}},
			Head: side{Metrics: map[string]float64{"peak_rss_mb": 22 + float64(i%2)/10}}})
	}
	g.summarize([]metricSpec{{Name: "peak_rss_mb", Unit: "MB", Better: "lower"}})
	r := report{Base: revision{Commit: "887075eb1bd0"}, Head: revision{Commit: "abcdef123456"}, Groups: []group{g}}
	md := r.markdown()
	for _, want := range []string{
		"write-audit at seed 42: 10 alternating pairs",
		"base 887075e first in odd pairs, head abcdef1",
		"| `peak_rss_mb` (MB, lower is better) | 31.10 → 22.10, 31.20 → 22.00,",
		"| 31.10 (31.00–31.20) | 22.05 (22.00–22.10) | 10/10 | 0.00195 |",
		"one `sim_digest` in every run",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("table lacks %q:\n%s", want, md)
		}
	}
}

// TestUsageErrors: a missing revision or workload is a usage error.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-head", "HEAD", "-workload", "write-audit"},
		{"-base", "HEAD~1", "-workload", "write-audit"},
		{"-base", "HEAD~1", "-head", "HEAD"},
		{"-base", "HEAD~1", "-head", "HEAD", "-workload", "w", "-seed", "x"},
		{"-base", "HEAD~1", "-head", "HEAD", "-workload", "w", "-pairs", "0"},
	} {
		var out, errs strings.Builder
		if code := run(context.Background(), args, &out, &errs); code != 2 {
			t.Errorf("abpairs %v exits %d, want 2", args, code)
		}
	}
}

// TestInterruptLeavesNothingBehind cancels a run while its bench
// blocks, in a throwaway repository whose bench/run.sh execs a shell
// that starts a child of its own, as the real bench starts its reps.
// The cancelled run must exit non-zero with no worktree registered but
// the main one, neither worktree directory left, and no process of the
// bench's tree still running.
func TestInterruptLeavesNothingBehind(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	repo, dir := t.TempDir(), filepath.Join(t.TempDir(), "pairs")
	pids := filepath.Join(t.TempDir(), "pids")
	files := map[string]string{
		"BENCHMARK.json": `{"end_to_end":[{"name":"refs_per_s","unit":"1/s","better":"higher"}]}`,
		// -h is abpairs' build step; a run blocks until it is killed.
		"bench/run.sh": `if [ "$1" = -h ]; then mkdir -p .bench_build && touch .bench_build/bench; exit 2; fi
exec bash -c 'sleep 300 & echo "$$ $!" >> "` + pids + `"; wait'
`,
	}
	for name, body := range files {
		path := filepath.Join(repo, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	gitIn := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com",
			"-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = repo
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	gitIn("init", "-q")
	gitIn("add", ".")
	gitIn("commit", "-q", "-m", "throwaway")

	// abpairs runs git in its working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(repo); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr strings.Builder
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, []string{"-base", "HEAD", "-head", "HEAD", "-workload", "w", "-pairs", "1", "-dir", dir}, &stdout, &stderr)
	}()
	var procs []int
	for deadline := time.Now().Add(time.Minute); len(procs) == 0; time.Sleep(10 * time.Millisecond) {
		if data, err := os.ReadFile(pids); err == nil && strings.HasSuffix(string(data), "\n") {
			for _, f := range strings.Fields(string(data)) {
				pid, err := strconv.Atoi(f)
				if err != nil {
					t.Fatalf("pids file: %v", err)
				}
				procs = append(procs, pid)
			}
		}
		if time.Now().After(deadline) {
			cancel()
			<-code
			t.Fatalf("the bench never started:\n%s", stderr.String())
		}
	}
	cancel()
	if c := <-code; c == 0 {
		t.Errorf("an interrupted run exits 0:\n%s", stderr.String())
	}

	if trees := strings.Count(gitIn("worktree", "list", "--porcelain"), "worktree "); trees != 1 {
		t.Errorf("%d worktrees registered after the interrupt, want only the main one", trees)
	}
	for _, name := range []string{"base", "head"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s worktree directory left behind (stat: %v)", name, err)
		}
	}
	for _, pid := range procs {
		// SIGKILL lands asynchronously; give a dying process a moment.
		for deadline := time.Now().Add(5 * time.Second); running(pid); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("process %d of the bench still runs after the interrupt", pid)
				break
			}
		}
	}
}

// running reports whether pid is a live process: one that exists and
// is not a zombie waiting for its new parent to reap it.
func running(pid int) bool {
	stat, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return false
	}
	// The state follows the parenthesized command name.
	i := strings.LastIndexByte(string(stat), ')')
	return i < 0 || i+2 >= len(stat) || stat[i+2] != 'Z'
}
