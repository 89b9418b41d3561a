package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exitOutput re-execs the test binary as tmpsim with args and returns
// its combined output. It fails the test unless the process exits with
// code. The child re-enters the calling test via an env guard, so that
// test must call exitOutput before anything else; a child whose main
// returns exits 0.
func exitOutput(t *testing.T, code int, args ...string) string {
	t.Helper()
	if os.Getenv("TMPSIM_RUN_MAIN") == "1" {
		os.Args = append([]string{"tmpsim"}, args...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), "TMPSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("want exit error, got %v\noutput:\n%s", err, out)
	}
	if got := ee.ExitCode(); got != code {
		t.Errorf("exit code %d, want %d\noutput:\n%s", got, code, out)
	}
	return string(out)
}

// usageErrorOutput is exitOutput for a usage error: exit 2, the code
// the flag package gives an unknown flag.
func usageErrorOutput(t *testing.T, args ...string) string {
	t.Helper()
	return exitOutput(t, 2, args...)
}

// sharedTempDir returns a temporary directory that a re-exec'd child
// shares with its parent test: the parent makes it and hands it down
// in TMPSIM_TEMPDIR, so both build the same absolute paths into the
// arguments.
func sharedTempDir(t *testing.T) string {
	t.Helper()
	if dir := os.Getenv("TMPSIM_TEMPDIR"); dir != "" {
		return dir
	}
	dir := t.TempDir()
	t.Setenv("TMPSIM_TEMPDIR", dir)
	return dir
}

// wantProfile fails the test unless path holds a whole pprof profile:
// a gzip stream of protobuf fields that ends on a field boundary and
// holds the profile's sample types (field 1) and string table
// (field 6). A profile that was never stopped is an empty file.
func wantProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s is not a gzipped profile: %v", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	seen := map[uint64]bool{}
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			t.Fatalf("%s: bad field key", path)
		}
		data = data[n:]
		size := -1
		switch key & 7 {
		case 0: // varint
			if _, m := binary.Uvarint(data); m > 0 {
				size = m
			}
		case 1: // fixed64
			size = 8
		case 2: // length-delimited
			if l, m := binary.Uvarint(data); m > 0 && l <= uint64(len(data)-m) {
				size = m + int(l)
			}
		case 5: // fixed32
			size = 4
		}
		if size < 0 || size > len(data) {
			t.Fatalf("%s: field %d (wire type %d) is malformed or truncated", path, key>>3, key&7)
		}
		data = data[size:]
		seen[key>>3] = true
	}
	if !seen[1] || !seen[6] {
		t.Errorf("%s lacks sample types or a string table: fields %v", path, seen)
	}
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

// TestUsageErrorLeavesNoProfile pins that every flag is checked before
// -cpuprofile creates its file: a usage error exits 2 and leaves no
// profile behind.
func TestUsageErrorLeavesNoProfile(t *testing.T) {
	prof := filepath.Join(sharedTempDir(t), "cpu.pprof")
	text := usageErrorOutput(t, "-cpuprofile", prof, "-refs", "0")
	wantAll(t, text, "-refs 0", "must be positive", "Usage of")
	if _, err := os.Stat(prof); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-cpuprofile file exists after a usage error (stat: %v)", err)
	}
}

// TestFatalStopsCPUProfile pins that a run failing after the CPU
// profile started still ends the profile. fatal exits through
// os.Exit, which skips main's deferred stop, so it used to leave an
// empty file that pprof rejects.
func TestFatalStopsCPUProfile(t *testing.T) {
	dir := sharedTempDir(t)
	prof := filepath.Join(dir, "cpu.pprof")
	text := exitOutput(t, 1, "-cpuprofile", prof, "-refs", "20000", "-policy", "none",
		"-prov", filepath.Join(dir, "missing", "prov.jsonl"))
	wantAll(t, text, "tmpsim:", "no such file or directory")
	wantProfile(t, prof)
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

// TestWhyBogusIsUsageError pins that a malformed -why page is
// rejected as a usage error, as tmpwhy -page rejects it; it used to
// exit 1 without usage.
func TestWhyBogusIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-why", "bogus")
	wantAll(t, text, "bad page", "bogus", "pid:vpn", "Usage of", "-why")
}

// TestScaleBelowGrowthBoundIsUsageError pins that a -scale below
// -workload.MaxGrowShift is rejected before any run; it used to run at
// the bound without a word.
func TestScaleBelowGrowthBoundIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-scale", "-8", "-refs", "20000", "-policy", "none")
	wantAll(t, text, "-scale -8", "must be at least -5", "Usage of", "-scale")
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
