package tieredmem_test

// Docs-sync tests: the counter and histogram lists in OBSERVABILITY.md
// are checked in both directions against the names a fully
// instrumented run actually registers, and ANALYSIS.md's analyzer
// sections against the tmplint suite. A new runtime metric or analyzer
// without a doc entry fails, and so does a documented name that no
// longer exists — the doc cannot drift from the code.

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"tieredmem/internal/analysis"
	"tieredmem/internal/core"
	"tieredmem/internal/fault"
	"tieredmem/internal/order"
	"tieredmem/internal/policy"
	"tieredmem/internal/provenance"
	"tieredmem/internal/sim"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/workload"
)

// instrumentedRegistry runs one maximally instrumented placement —
// three-tier chain (device tracker attached), fault plane, tracer,
// and flight recorder — and returns its counter registry. Every
// subsystem registers its full name set eagerly at SetTracer, so the
// run only has to wire everything, not exercise every path.
func instrumentedRegistry(t *testing.T) *telemetry.Registry {
	t.Helper()
	mk := func() workload.Workload {
		return workload.MustNew("gups", workload.Config{Seed: 42, FirstPID: 100, ScaleShift: 2})
	}
	chain, err := sim.DefaultChain(mk(), 8, 3)
	if err != nil {
		t.Fatalf("DefaultChain: %v", err)
	}
	spec, err := fault.ParseSpec("all=0.05")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	cfg := sim.DefaultPlacementConfig(mk(), 8192, 200_000, 8, policy.History{}, core.MethodCombined)
	cfg.Tiers = chain
	cfg.TMP.EnableDevProf = chain.HasDevice()
	cfg.Tracer = telemetry.New()
	cfg.Faults = fault.New(spec, 42)
	cfg.Prov = provenance.New()
	if _, err := sim.RunPlacement(cfg, mk()); err != nil {
		t.Fatalf("RunPlacement: %v", err)
	}
	return cfg.Tracer.Registry()
}

// docMetricNames extracts every backticked <subsystem>/<metric> token
// from one "## heading" section of OBSERVABILITY.md.
func docMetricNames(t *testing.T, heading string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("read OBSERVABILITY.md: %v", err)
	}
	_, rest, ok := strings.Cut(string(raw), "\n## "+heading+"\n")
	if !ok {
		t.Fatalf("OBSERVABILITY.md has no %q section", heading)
	}
	section, _, _ := strings.Cut(rest, "\n## ")
	re := regexp.MustCompile("`([a-z]+/[a-z0-9_]+)`")
	names := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(section, -1) {
		names[m[1]] = true
	}
	if len(names) == 0 {
		t.Fatalf("no metric names parsed from the %q section", heading)
	}
	return names
}

// TestDocsSyncCounters pins OBSERVABILITY.md's "Counter naming" list
// to the counters an instrumented run registers, both directions.
// (The runner/… host-pool counters live in a separate registry that is
// never merged into the virtual-time streams; the doc describes them
// in prose, not in the checked list.)
func TestDocsSyncCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	reg := instrumentedRegistry(t)
	doc := docMetricNames(t, "Counter naming")
	registered := map[string]bool{}
	for _, name := range reg.Names() {
		registered[name] = true
		if !doc[name] {
			t.Errorf("counter %s is registered at runtime but missing from OBSERVABILITY.md's counter list", name)
		}
	}
	for _, name := range order.SortedKeys(doc) {
		if !registered[name] {
			t.Errorf("OBSERVABILITY.md documents counter %s, which no instrumented run registers", name)
		}
	}
}

// TestDocsSyncHistograms does the same for the "Distribution
// histograms" section.
func TestDocsSyncHistograms(t *testing.T) {
	if testing.Short() {
		t.Skip("placement runs are slow")
	}
	reg := instrumentedRegistry(t)
	doc := docMetricNames(t, "Distribution histograms")
	registered := map[string]bool{}
	for _, name := range reg.HistNames() {
		registered[name] = true
		if !doc[name] {
			t.Errorf("histogram %s is registered at runtime but missing from OBSERVABILITY.md's histogram list", name)
		}
	}
	for _, name := range order.SortedKeys(doc) {
		if !registered[name] {
			t.Errorf("OBSERVABILITY.md documents histogram %s, which no instrumented run registers", name)
		}
	}
}

// TestDocsSyncAnalyzers pins ANALYSIS.md's "Analyzers" section to
// analysis.Analyzers(), both directions: exactly one
// "### <name> — " heading per analyzer in the suite, and no heading
// for an analyzer the suite lacks.
func TestDocsSyncAnalyzers(t *testing.T) {
	raw, err := os.ReadFile("ANALYSIS.md")
	if err != nil {
		t.Fatalf("read ANALYSIS.md: %v", err)
	}
	_, rest, ok := strings.Cut(string(raw), "\n## Analyzers\n")
	if !ok {
		t.Fatal("ANALYSIS.md has no \"Analyzers\" section")
	}
	section, _, _ := strings.Cut(rest, "\n## ")
	doc := map[string]int{}
	for _, m := range regexp.MustCompile(`(?m)^### (\S+) — `).FindAllStringSubmatch(section, -1) {
		doc[m[1]]++
	}
	suite := map[string]bool{}
	for _, a := range analysis.Analyzers() {
		suite[a.Name] = true
		if n := doc[a.Name]; n != 1 {
			t.Errorf("ANALYSIS.md has %d \"### %s — \" headings, want exactly 1", n, a.Name)
		}
	}
	for _, name := range order.SortedKeys(doc) {
		if !suite[name] {
			t.Errorf("ANALYSIS.md documents analyzer %s, which analysis.Analyzers() does not return", name)
		}
	}
}

// TestDocsSyncFlags keeps the command-line flags the docs teach
// honest in both directions: each flag must still be defined by the
// commands the docs attribute it to (a rename or removal fails here
// before a stale doc ships), and each doc that teaches the flag must
// actually name it.
func TestDocsSyncFlags(t *testing.T) {
	files := map[string]string{}
	read := func(path string) string {
		if s, ok := files[path]; ok {
			return s
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		files[path] = string(raw)
		return files[path]
	}
	all := []string{"cmd/tmpsim/main.go", "cmd/tmpprof/main.go", "cmd/tmptrace/main.go", "cmd/tmpbench/main.go"}
	pprof := []string{"cmd/tmpsim/main.go", "cmd/tmpprof/main.go", "cmd/tmpbench/main.go"}
	tmpsim := []string{"cmd/tmpsim/main.go"}
	for _, tc := range []struct {
		flag    string
		defined []string // sources that must register the flag
		docs    []string // docs that must mention -flag
	}{
		{"trace", all, []string{"OBSERVABILITY.md"}},
		{"events", all, []string{"OBSERVABILITY.md"}},
		{"metrics", all, []string{"OBSERVABILITY.md"}},
		{"cpuprofile", pprof, []string{"OBSERVABILITY.md"}},
		{"memprofile", pprof, []string{"OBSERVABILITY.md"}},
		{"prov", tmpsim, []string{"OBSERVABILITY.md"}},
		{"why", tmpsim, []string{"OBSERVABILITY.md"}},
		{"txmig", tmpsim, []string{"OBSERVABILITY.md", "ROBUSTNESS.md"}},
		{"admission", tmpsim, []string{"OBSERVABILITY.md", "ROBUSTNESS.md"}},
	} {
		def := regexp.MustCompile(`flag\.\w+\("` + regexp.QuoteMeta(tc.flag) + `"`)
		for _, src := range tc.defined {
			if !def.MatchString(read(src)) {
				t.Errorf("%s does not define flag -%s, but the docs say it does", src, tc.flag)
			}
		}
		for _, doc := range tc.docs {
			if !strings.Contains(read(doc), "-"+tc.flag) {
				t.Errorf("%s never mentions -%s; document the flag or drop it from this check", doc, tc.flag)
			}
		}
	}
}
