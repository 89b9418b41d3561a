package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStdout pins the example's stdout byte for byte: per workload,
// the run's duration and epochs, each HWPC gauge's state, peak window
// and toggles, and what the gated IBS engine and A-bit scanner saw.
func TestStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 3M-reference profiling simulations")
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("stdout drifted from testdata/stdout.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
