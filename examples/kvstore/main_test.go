package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStdout pins the example's stdout byte for byte: durations,
// tier-1 hit rates and promotions of the first-touch and History arms,
// and the speedup between them.
func TestStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 6M-reference placement simulations")
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
