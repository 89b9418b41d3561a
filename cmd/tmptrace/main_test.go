package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRateUnknownIsUsageError pins the flag-value contract tmpsim and
// tmpbench keep for -faults: a typo'd -rate must name the valid rates,
// print usage, and exit 2.
func TestRateUnknownIsUsageError(t *testing.T) {
	if os.Getenv("TMPTRACE_RUN_MAIN") == "1" {
		os.Args = []string{"tmptrace", "-capture", "-rate", "3x"}
		main()
		return // unreachable: a bad rate exits
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestRateUnknownIsUsageError")
	cmd.Env = append(os.Environ(), "TMPTRACE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v\noutput:\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Errorf("exit code %d, want 2 (usage error)\noutput:\n%s", code, out)
	}
	text := string(out)
	for _, want := range []string{
		"unknown rate",
		"3x",
		"default",
		"4x",
		"8x",
		"Usage of",
		"-rate",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("usage output missing %q:\n%s", want, text)
		}
	}
}
