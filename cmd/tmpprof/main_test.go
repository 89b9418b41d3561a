package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// usageErrorOutput re-execs the test binary as tmpprof with args and
// returns its combined output. It fails the test unless the process
// exits 2, the code the flag package gives an unknown flag. The child
// re-enters the calling test via an env guard, so that test must call
// usageErrorOutput before anything else.
func usageErrorOutput(t *testing.T, args ...string) string {
	t.Helper()
	if os.Getenv("TMPPROF_RUN_MAIN") == "1" {
		os.Args = append([]string{"tmpprof"}, args...)
		main()
		t.Fatal("main returned; want a usage error")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), "TMPPROF_RUN_MAIN=1")
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

// wantAll fails the test for every want missing from the output.
func wantAll(t *testing.T, text string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(text, want) {
			t.Errorf("usage output missing %q:\n%s", want, text)
		}
	}
}

// TestRateUnknownIsUsageError pins the flag-value contract tmpsim and
// tmpbench keep for -faults: a typo'd -rate must name the valid rates,
// print usage, and exit 2.
func TestRateUnknownIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-rate", "3x")
	wantAll(t, text, "unknown rate", "3x", "default", "4x", "8x", "Usage of", "-rate")
}

// TestPeriodZeroIsUsageError pins that a -period that is not positive
// is rejected before anything is profiled; it used to run and sample
// every op.
func TestPeriodZeroIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-period", "0", "-refs", "20000")
	wantAll(t, text, "-period 0", "must be positive", "Usage of")
}

// TestRefsZeroIsUsageError pins the same contract for a -refs that is
// not positive, which used to fail inside the library with exit 1.
func TestRefsZeroIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-refs", "0")
	wantAll(t, text, "-refs 0", "must be positive", "Usage of")
}

// TestScaleBelowGrowthBoundIsUsageError pins that a -scale below
// -workload.MaxGrowShift is rejected before anything is profiled; it
// used to profile at the bound without a word.
func TestScaleBelowGrowthBoundIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-workload", "gups", "-refs", "20000", "-scale=-8")
	wantAll(t, text, "-scale -8", "must be at least -5", "Usage of", "-scale")
}
