package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const baseRun = `BenchmarkMachineExecute-8    10    1000 ns/op    0 B/op    0 allocs/op
BenchmarkTopK-8              10     500 ns/op   16 B/op    1 allocs/op
`

// runBenchcmp re-execs the test binary as benchcmp on old and new
// bench outputs with the default -allocs-guard, and returns the
// combined output and exit code. The child re-enters the calling test
// via an env guard, so that test must call runBenchcmp first.
func runBenchcmp(t *testing.T, old, cur string) (string, int) {
	t.Helper()
	if dir := os.Getenv("BENCHCMP_RUN_MAIN"); dir != "" {
		os.Args = []string{"benchcmp", filepath.Join(dir, "old.txt"), filepath.Join(dir, "new.txt")}
		main()
		os.Exit(0) // a passing comparison returns from main
	}
	dir := t.TempDir()
	for name, body := range map[string]string{"old.txt": old, "new.txt": cur} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), "BENCHCMP_RUN_MAIN="+dir)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("running benchcmp: %v\noutput:\n%s", err, out)
	}
	return string(out), 0
}

// TestGuardedBenchmarkGoneFails pins that a benchmark matching
// -allocs-guard that ran on the base but not on the head fails the
// comparison: deleting or renaming it must not slip past the gate.
func TestGuardedBenchmarkGoneFails(t *testing.T) {
	out, code := runBenchcmp(t, baseRun, "BenchmarkTopK-8 10 500 ns/op 16 B/op 1 allocs/op\n")
	if code != 1 {
		t.Errorf("exit code %d, want 1\noutput:\n%s", code, out)
	}
	if !strings.Contains(out, "FAIL: BenchmarkMachineExecute") {
		t.Errorf("output does not name the gone guarded benchmark:\n%s", out)
	}
}

// TestUnguardedBenchmarkGonePasses pins the other side: a gone
// benchmark outside the guard is reported, not failed.
func TestUnguardedBenchmarkGonePasses(t *testing.T) {
	out, code := runBenchcmp(t, baseRun, "BenchmarkMachineExecute-8 10 1000 ns/op 0 B/op 0 allocs/op\n")
	if code != 0 {
		t.Errorf("exit code %d, want 0\noutput:\n%s", code, out)
	}
	if !strings.Contains(out, "gone") || strings.Contains(out, "FAIL:") {
		t.Errorf("want BenchmarkTopK reported gone without a failure:\n%s", out)
	}
}
