package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// runMainEnv is the env guard under which the re-exec'd test binary
// runs main instead of the calling test.
const runMainEnv = "TMPWHY_RUN_MAIN"

// usageErrorOutput re-execs the test binary as tmpwhy with args and
// returns its combined output. It fails the test unless the process
// exits 2, the code the flag package gives an unknown flag. The child
// re-enters the calling test via an env guard, so that test must call
// usageErrorOutput before anything else.
func usageErrorOutput(t *testing.T, args ...string) string {
	t.Helper()
	if os.Getenv(runMainEnv) == "1" {
		os.Args = append([]string{"tmpwhy"}, args...)
		main()
		t.Fatal("main returned; want a usage error")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
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

// mainOutput is usageErrorOutput for a run that must succeed: it
// returns the child's stdout and fails the test unless it exits 0.
func mainOutput(t *testing.T, args ...string) string {
	t.Helper()
	if os.Getenv(runMainEnv) == "1" {
		os.Args = append([]string{"tmpwhy"}, args...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("tmpwhy %v: %v", args, err)
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

// absentLog names a log file that does not exist, so a usage error
// that is reported only after opening the log fails as exit 1 instead.
func absentLog(t *testing.T) string {
	return filepath.Join(t.TempDir(), "absent.jsonl")
}

// TestLogMissingIsUsageError pins that running without -log prints the
// usage and exits 2; it used to exit 1 with no usage.
func TestLogMissingIsUsageError(t *testing.T) {
	text := usageErrorOutput(t)
	wantAll(t, text, "-log is required", "Usage of", "-log")
}

// TestPageBogusIsUsageError pins that a malformed -page is rejected
// before the log is opened; it used to exit 1 after reading the log.
func TestPageBogusIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-log", absentLog(t), "-page", "bogus")
	wantAll(t, text, "-page", "bogus", "want pid:vpn", "Usage of")
}

// TestTopNegativeIsUsageError pins that a negative -top is a usage
// error; it used to exit 0.
func TestTopNegativeIsUsageError(t *testing.T) {
	text := usageErrorOutput(t, "-log", absentLog(t), "-top", "-3")
	wantAll(t, text, "-top -3", "must not be negative", "Usage of")
}

// oldFormatLog is a provenance log as writers emitted it while decision
// lines carried the PML evidence source's always-zero "write" key: one
// promotion each decided by A-bit, IBS and device evidence.
const oldFormatLog = `{"type":"run","schema":1,"label":"gups/history","last_k":8,"pingpong_k":4}
{"type":"page","pid":100,"vpn":"0x2a7","flips":0,"dropped":0,"records":2}
{"type":"decision","pid":100,"vpn":"0x2a7","epoch":3,"abit":1,"ibs":4,"write":0,"dev":0,"rank":5,"pos":0,"tier":1,"verdict":"promoted","from":1,"to":0,"selected":true,"degraded":false,"method":"tmp"}
{"type":"decision","pid":100,"vpn":"0x2a7","epoch":4,"abit":2,"ibs":0,"write":0,"dev":0,"rank":2,"pos":1,"tier":0,"verdict":"held:resident","from":-1,"to":-1,"selected":true,"degraded":false,"method":"tmp"}
{"type":"page","pid":100,"vpn":"0x2a8","flips":0,"dropped":0,"records":1}
{"type":"decision","pid":100,"vpn":"0x2a8","epoch":3,"abit":3,"ibs":1,"write":0,"dev":0,"rank":4,"pos":1,"tier":1,"verdict":"promoted","from":1,"to":0,"selected":true,"degraded":false,"method":"tmp"}
{"type":"page","pid":101,"vpn":"0x10","flips":0,"dropped":0,"records":1}
{"type":"decision","pid":101,"vpn":"0x10","epoch":4,"abit":0,"ibs":0,"write":0,"dev":5,"rank":5,"pos":0,"tier":1,"verdict":"promoted","from":1,"to":0,"selected":true,"degraded":false,"method":"tmp"}
`

// TestOldFormatLogDecisiveRows reads a log in the format with a
// "write" key and checks that the decisive-evidence table has exactly
// the three remaining mechanisms as rows.
func TestOldFormatLogDecisiveRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.jsonl")
	if err := os.WriteFile(path, []byte(oldFormatLog), 0o644); err != nil {
		t.Fatal(err)
	}
	out := mainOutput(t, "-log", path)
	_, table, ok := strings.Cut(out, "Decisive evidence per promotion")
	if !ok {
		t.Fatalf("no decisive-evidence table in output:\n%s", out)
	}
	var rows []string
	for _, m := range regexp.MustCompile(`(?m)^(\w+) +\d+ +[\d.]+%`).FindAllStringSubmatch(table, -1) {
		rows = append(rows, m[1])
	}
	if want := []string{"abit", "ibs", "dev"}; !slices.Equal(rows, want) {
		t.Errorf("decisive-evidence rows = %v, want %v\noutput:\n%s", rows, want, out)
	}
}
