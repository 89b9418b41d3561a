package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// usageErrorOutput re-execs the test binary as tmptrace with args and
// returns its combined output. It fails the test unless the process
// exits 2, the code the flag package gives an unknown flag. The child
// re-enters the calling test via an env guard, so that test must call
// usageErrorOutput before anything else.
func usageErrorOutput(t *testing.T, args ...string) string {
	t.Helper()
	if os.Getenv("TMPTRACE_RUN_MAIN") == "1" {
		os.Args = append([]string{"tmptrace"}, args...)
		main()
		t.Fatal("main returned; want a usage error")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), "TMPTRACE_RUN_MAIN=1")
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
	text := usageErrorOutput(t, "-capture", "-rate", "3x")
	wantAll(t, text, "unknown rate", "3x", "default", "4x", "8x", "Usage of", "-rate")
}

// TestRefsZeroIsUsageError pins that -capture with a -refs that is not
// positive is rejected before anything is profiled; it used to fail
// inside the library with exit 1.
func TestRefsZeroIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-capture", "-refs", "0", "-o", os.DevNull)
	wantAll(t, text, "-refs 0", "must be positive", "Usage of")
}
