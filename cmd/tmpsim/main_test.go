package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// usageErrorOutput re-execs the test binary as tmpsim with args and
// returns its combined output. It fails the test unless the process
// exits 2, the code the flag package gives an unknown flag. The child
// re-enters the calling test via an env guard, so that test must call
// usageErrorOutput before anything else.
func usageErrorOutput(t *testing.T, args ...string) string {
	t.Helper()
	if os.Getenv("TMPSIM_RUN_MAIN") == "1" {
		os.Args = append([]string{"tmpsim"}, args...)
		main()
		t.Fatal("main returned; want a usage error")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), "TMPSIM_RUN_MAIN=1")
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

// TestFaultsUnknownSiteIsUsageError pins the CLI contract for a typo'd
// -faults site: the error must name the valid sites (so the user can
// fix the spec without reading source), print usage, and exit 2 — the
// same shape the flag package gives an unknown flag.
func TestFaultsUnknownSiteIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-faults", "bogus.site=1")
	wantAll(t, text,
		"unknown site",
		"bogus.site",
		"known:",        // the error lists every valid site name
		"mem.copyabort", // including the transactional-migration sites
		"mem.shadowstale",
		"Usage of",
		"-faults")
}

// TestPolicyUnknownIsUsageError pins the same contract for -policy.
func TestPolicyUnknownIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-policy", "bogus")
	wantAll(t, text, "unknown policy", "bogus", "history, decay, none", "Usage of", "-policy")
}

// TestWorkloadUnknownIsUsageError pins the same contract for
// -workload: the error names every valid workload, Table III's and the
// two extra generators.
func TestWorkloadUnknownIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-workload", "bogus", "-refs", "1000")
	wantAll(t, text, "unknown name", "bogus", "data-caching", "phase-shift", "write-split", "Usage of", "-workload")
}

// TestMethodUnknownIsUsageError pins the same contract for -method.
func TestMethodUnknownIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-method", "bogus")
	wantAll(t, text, "unknown method", "bogus", "abit, ibs, tmp, devprof", "Usage of", "-method")
}

// TestAdmissionNaNIsUsageError pins that a non-finite -admission is
// rejected before any run: converted to a budget it used to leave
// admission silently off.
func TestAdmissionNaNIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-admission", "NaN")
	wantAll(t, text, "-admission NaN", "finite fraction", "Usage of")
}

// TestRefsZeroIsUsageError pins the same contract for a -refs that is
// not positive, which used to fail inside the library with exit 1.
func TestRefsZeroIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-refs", "0")
	wantAll(t, text, "-refs 0", "must be positive", "Usage of")
}

// TestPeriodZeroIsUsageError pins it for a -period that is not
// positive.
func TestPeriodZeroIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-period", "-5")
	wantAll(t, text, "-period -5", "must be positive", "Usage of")
}

// TestRatioZeroIsUsageError pins that a -ratio that is not positive is
// rejected before any run; the library used to run it at ratio 16
// without a word.
func TestRatioZeroIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-ratio", "0", "-refs", "20000", "-policy", "none")
	wantAll(t, text, "-ratio 0", "must be positive", "Usage of")
}

// TestTiersBadDepthIsUsageError pins the same contract for a -tiers
// depth no default chain has, which used to exit 1.
func TestTiersBadDepthIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-tiers", "7", "-refs", "20000", "-policy", "none")
	wantAll(t, text, `-tiers "7"`, "want 2..4", "Usage of", "-tiers")
}

// TestDevprofWithoutDeviceTierIsUsageError pins it for -method devprof
// on a chain with no device tier, which used to exit 1.
func TestDevprofWithoutDeviceTierIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-method", "devprof", "-refs", "20000")
	wantAll(t, text, "devprof needs a device tier", "Usage of", "-method")
}
