package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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

// mainOutput re-execs the test binary as tmpsim with args, in a fresh
// temporary directory, and returns that directory and the process's
// stdout. It fails the test unless the process exits 0. As with
// usageErrorOutput, the child re-enters the calling test, so that test
// must call mainOutput before anything else.
func mainOutput(t *testing.T, args ...string) (dir, stdout string) {
	t.Helper()
	if os.Getenv("TMPSIM_RUN_MAIN") == "1" {
		os.Args = append([]string{"tmpsim"}, args...)
		main()
		os.Exit(0)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	cmd := exec.Command(exe, "-test.run=^"+t.Name()+"$")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TMPSIM_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("tmpsim %s: %v\nstderr:\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return dir, string(out)
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

// TestShardsIsUndefinedFlag pins that tmpsim has one machine model:
// -shards, which ran each arm as per-core cells, is an unknown flag.
func TestShardsIsUndefinedFlag(t *testing.T) {
	text := usageErrorOutput(t, "-shards", "2")
	wantAll(t, text, "flag provided but not defined: -shards", "Usage of")
}

// TestOutputIdenticalAcrossWidths runs tmpsim's arm wiring end to end,
// faulted, transactional and with every export on, at -parallel 1 and
// 2: each arm's private tracer, fault plane and recorder, and exports
// in submission order, must make stdout and the -prov and -events
// files byte-identical at both widths.
func TestOutputIdenticalAcrossWidths(t *testing.T) {
	args := []string{"-workload", "gups", "-refs", "200000", "-tiers", "3", "-faults", "all=0.1",
		"-txmig", "-admission", "0.25", "-metrics", "-prov", "prov.jsonl", "-events", "events.jsonl"}
	names := []string{"stdout", "prov.jsonl", "events.jsonl"}
	var outs [][]string // per width, one text per name
	for _, width := range []string{"1", "2"} {
		t.Run("parallel"+width, func(t *testing.T) {
			dir, stdout := mainOutput(t, slices.Concat(args, []string{"-parallel", width})...)
			out := []string{stdout}
			for _, name := range names[1:] {
				raw, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, string(raw))
			}
			outs = append(outs, out)
		})
	}
	if len(outs) != 2 {
		t.Fatal("a run failed")
	}
	if !strings.Contains(outs[0][0], "Fault attribution") || !strings.Contains(outs[0][0], "Provenance summary") {
		t.Errorf("stdout lacks the fault and provenance tables:\n%s", outs[0][0])
	}
	for i, name := range names {
		if outs[0][i] != outs[1][i] {
			t.Errorf("%s differs between -parallel 1 and 2", name)
		}
	}
}
