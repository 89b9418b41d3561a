package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// usageErrorOutput re-execs the test binary as tmpbench with args,
// running in dir, and returns its combined output. It fails the test
// unless the process exits 2, the code the flag package gives an
// unknown flag. The child re-enters the calling test, so that test
// must call usageErrorOutput before anything else.
func usageErrorOutput(t *testing.T, dir string, args ...string) string {
	t.Helper()
	if os.Getenv("TMPBENCH_RUN_MAIN") == "1" {
		os.Args = append([]string{"tmpbench"}, args...)
		main()
		t.Fatal("main returned; want a usage error")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^"+t.Name()+"$")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TMPBENCH_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("want exit error, got %v\noutput:\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Errorf("exit code %d, want 2 (usage error)\noutput:\n%s", code, out)
	}
	return string(out)
}

// sharedTempDir returns a temporary directory that a re-exec'd child
// shares with its parent test: the parent makes it and hands it down
// in TMPBENCH_TEMPDIR, so both build the same absolute paths into the
// arguments.
func sharedTempDir(t *testing.T) string {
	t.Helper()
	if dir := os.Getenv("TMPBENCH_TEMPDIR"); dir != "" {
		return dir
	}
	dir := t.TempDir()
	t.Setenv("TMPBENCH_TEMPDIR", dir)
	return dir
}

// wantAll fails the test for every want missing from the output.
func wantAll(t *testing.T, text string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(text, want) {
			t.Errorf("usage output missing %q:\n%s", want, text)
		}
	}
}

// TestFaultsUnknownSiteIsUsageError pins the same -faults contract as
// tmpsim's: a typo'd injection site must list the valid site names,
// print usage, and exit 2. See cmd/tmpsim/main_test.go.
func TestFaultsUnknownSiteIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "", "-faults", "bogus.site=1")
	wantAll(t, text, "unknown site", "bogus.site", "known:", "mem.copyabort", "mem.shadowstale", "Usage of", "-faults")
}

// TestExpUnknownIsUsageError pins that a mistyped -exp names the valid
// experiments, prints usage and exits 2 before the -out directory is
// created.
func TestExpUnknownIsUsageError(t *testing.T) {
	dir := t.TempDir()
	text := usageErrorOutput(t, dir, "-exp", "fig7", "-out", "results")
	wantAll(t, text, "unknown experiment", "fig7", "fig6", "bwcontend", "Usage of", "-exp")
	if _, err := os.Stat(filepath.Join(dir, "results")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-out directory exists after an unknown -exp (stat: %v)", err)
	}
}

// TestWorkloadsUnknownIsUsageError pins that a mistyped -workloads
// entry names the valid workloads, prints usage and exits 2 before the
// -out directory is created or any experiment starts.
func TestWorkloadsUnknownIsUsageError(t *testing.T) {
	dir := t.TempDir()
	text := usageErrorOutput(t, dir, "-exp", "fig2", "-workloads", "bogus", "-out", "results")
	wantAll(t, text, "unknown name", "bogus", "data-caching", "Usage of", "-workloads")
	if _, err := os.Stat(filepath.Join(dir, "results")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-out directory exists after an unknown -workloads entry (stat: %v)", err)
	}
}

// TestPeriodZeroIsUsageError pins that a -period that is not positive
// is rejected before the -out directory is created: the library used
// to clamp it to 1, sample every op and exit 0.
func TestPeriodZeroIsUsageError(t *testing.T) {
	dir := t.TempDir()
	text := usageErrorOutput(t, dir, "-exp", "fig2", "-workloads", "gups", "-refs", "20000", "-period", "0", "-out", "results")
	wantAll(t, text, "-period 0", "must be positive", "Usage of", "-period")
	if _, err := os.Stat(filepath.Join(dir, "results")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-out directory exists after -period 0 (stat: %v)", err)
	}
}

// TestScaleBelowGrowthBoundIsUsageError pins that a -scale below
// -workload.MaxGrowShift is rejected before the -out directory is
// created; it used to run at the bound without a word.
func TestScaleBelowGrowthBoundIsUsageError(t *testing.T) {
	dir := t.TempDir()
	text := usageErrorOutput(t, dir, "-exp", "fig2", "-workloads", "gups", "-refs", "20000", "-scale=-8", "-out", "results")
	wantAll(t, text, "-scale -8", "must be at least -5", "Usage of", "-scale")
	if _, err := os.Stat(filepath.Join(dir, "results")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-out directory exists after -scale -8 (stat: %v)", err)
	}
}

// TestUsageErrorLeavesNoProfile pins that every flag is checked before
// -cpuprofile creates its file: a usage error exits 2 and leaves no
// profile and no -out directory behind.
func TestUsageErrorLeavesNoProfile(t *testing.T) {
	dir := sharedTempDir(t)
	prof := filepath.Join(dir, "cpu.pprof")
	text := usageErrorOutput(t, dir, "-cpuprofile", prof, "-exp", "fig2", "-workloads", "bogus", "-out", "results")
	wantAll(t, text, "unknown name", "bogus", "Usage of", "-workloads")
	for _, path := range []string{prof, filepath.Join(dir, "results")} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s exists after a usage error (stat: %v)", path, err)
		}
	}
}

// TestRefsZeroIsUsageError pins the same for -refs 0, which used to
// exit 1 only after an experiment had started.
func TestRefsZeroIsUsageError(t *testing.T) {
	dir := t.TempDir()
	text := usageErrorOutput(t, dir, "-exp", "fig2", "-workloads", "gups", "-refs", "0", "-out", "results")
	wantAll(t, text, "-refs 0", "must be positive", "Usage of", "-refs")
	if _, err := os.Stat(filepath.Join(dir, "results")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-out directory exists after -refs 0 (stat: %v)", err)
	}
}
