package sim

import (
	"fmt"
	"strings"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/workload"
)

// rankDump renders a run's per-epoch ranked pages under every method
// as one byte stream: the simulator's externally visible profiling
// output.
func rankDump(res Result) string {
	var b strings.Builder
	for _, ep := range res.Epochs {
		for _, m := range core.Methods {
			fmt.Fprintf(&b, "epoch %d method %s\n", ep.Epoch, m)
			for _, ps := range core.RankedPages(ep, m) {
				fmt.Fprintf(&b, "%d:%#x tier=%d abit=%d trace=%d true=%d rank=%d\n",
					ps.Key.PID, uint64(ps.Key.VPN), int(ps.Tier),
					ps.Abit, ps.Trace, ps.True, ps.Rank(m))
			}
		}
	}
	fmt.Fprintf(&b, "refs=%d duration=%d ibs=%d abit=%d hwpc=%d\n",
		res.Refs, res.DurationNS, res.IBSOverheadNS, res.AbitOverheadNS, res.HWPCOverheadNS)
	return b.String()
}

// runOnce executes a fresh simulator instance from the given seed.
func runOnce(t *testing.T, seed int64) Result {
	t.Helper()
	w := workload.MustNew("gups", workload.Config{Seed: seed, FirstPID: 100, ScaleShift: 0})
	cfg := DefaultConfig(w, 16384, 400_000)
	r, err := New(cfg, w)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Epochs) == 0 {
		t.Fatal("no epochs harvested")
	}
	return res
}

// TestDeterministicRanks is the determinism regression gate behind the
// tmplint suite: two independent simulator instances driven from the
// same seed must produce byte-identical ranked-page output (DESIGN.md
// §2 — the reproduction's same-seed-same-ranks contract).
func TestDeterministicRanks(t *testing.T) {
	first := rankDump(runOnce(t, 42))
	second := rankDump(runOnce(t, 42))
	if first != second {
		t.Fatalf("same seed produced different ranked-page output:\nlen(first)=%d len(second)=%d\nfirst run:\n%s\nsecond run:\n%s",
			len(first), len(second), head(first, 30), head(second, 30))
	}
	// A different seed must actually change the stream, or the dump is
	// vacuous.
	other := rankDump(runOnce(t, 43))
	if first == other {
		t.Fatal("different seeds produced identical output; the dump is not sensitive to the workload")
	}
}

// head returns the first n lines of s for failure diffs.
func head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
