package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStdout pins the example's stdout byte for byte: the run's
// shape and overhead, and the ten hottest pages of the last full epoch
// in core.RankedPages order.
func TestStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 4M-reference profiling simulation")
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
