package analysis

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe finds an expectation comment: `// want ...` or, for lines
// whose trailing comment is taken by a tmplint directive under audit,
// `/* want ... */`. The payload holds one or more backquoted regexps —
// one per finding expected on the line.
var wantRe = regexp.MustCompile(`(?://|/\*) want (.*)$`)

// wantPatRe extracts the individual backquoted patterns.
var wantPatRe = regexp.MustCompile("`([^`]+)`")

// expectation is one pattern from a `want` comment in a fixture file.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// loadExpectations scans every fixture file in dir (including
// _test.go files) for want comments.
func loadExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var out []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pats := wantPatRe.FindAllStringSubmatch(m[1], -1)
			if len(pats) == 0 {
				t.Fatalf("%s:%d: want comment without a backquoted pattern", path, i+1)
			}
			for _, p := range pats {
				re, err := regexp.Compile(p[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, p[1], err)
				}
				out = append(out, &expectation{file: path, line: i + 1, pattern: re})
			}
		}
	}
	return out
}

// fixtureDir resolves a fixture name to the directory holding its Go
// files. Most fixtures are flat (testdata/src/<name>); scope-sensitive
// ones nest the files deeper so the package's import path contains the
// fragment the analyzer keys on (testdata/src/rankpath/internal/
// experiments).
func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	root := filepath.Join("testdata", "src", name)
	var found string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if found == "" && !d.IsDir() && strings.HasSuffix(d.Name(), ".go") {
			found = filepath.Dir(path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking fixture %s: %v", root, err)
	}
	if found == "" {
		t.Fatalf("fixture %s has no Go files", root)
	}
	return found
}

// runFixture analyzes one fixture package with one analyzer and
// checks findings against the want comments.
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	runFixtureDir(t, fixtureDir(t, a.Name), []*Analyzer{a})
}

// runFixtureDir analyzes the fixture package in dir with the requested
// analyzers: every finding must match an expectation on its exact
// line, and every expectation must be hit.
func runFixtureDir(t *testing.T, dir string, requested []*Analyzer) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	expectations := loadExpectations(t, dir)
	if len(expectations) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}
	checkFindings(t, Run([]*Package{pkg}, requested), requested, expectations)
}

// checkFindings matches findings against expectations one-to-one.
func checkFindings(t *testing.T, findings []Finding, requested []*Analyzer, expectations []*expectation) {
	t.Helper()
	allowed := make(map[string]bool, len(requested))
	for _, a := range requested {
		allowed[a.Name] = true
	}
	for _, f := range findings {
		if !allowed[f.Analyzer] {
			t.Errorf("finding from unexpected analyzer %q: %v", f.Analyzer, f)
			continue
		}
		ok := false
		for _, exp := range expectations {
			if exp.matched || f.Pos.Line != exp.line {
				continue
			}
			if sameFile(f.Pos.Filename, exp.file) && exp.pattern.MatchString(f.Message) {
				exp.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %v", f)
		}
	}
	for _, exp := range expectations {
		if !exp.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", exp.file, exp.line, exp.pattern)
		}
	}
}

// sameFile compares paths that may differ in absolute/relative form.
func sameFile(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && aa == bb
}

func TestMapRange(t *testing.T)     { runFixture(t, MapRange) }
func TestWallClock(t *testing.T)    { runFixture(t, WallClock) }
func TestEpochAccount(t *testing.T) { runFixture(t, EpochAccount) }
func TestFloatSum(t *testing.T)     { runFixture(t, FloatSum) }
func TestExhaustive(t *testing.T)   { runFixture(t, Exhaustive) }
func TestTelemetry(t *testing.T)    { runFixture(t, Telemetry) }
func TestFaultRand(t *testing.T)    { runFixture(t, FaultRand) }
func TestDenseMap(t *testing.T)     { runFixture(t, DenseMap) }
func TestRankPath(t *testing.T)     { runFixture(t, RankPath) }
func TestCtrName(t *testing.T)      { runFixture(t, CtrName) }
func TestSentErr(t *testing.T)      { runFixture(t, SentErr) }
func TestGoroutine(t *testing.T)    { runFixture(t, Goroutine) }

// TestGoroutineShardedSim pins that the sharded pipeline did not
// loosen the concurrency fence: internal/sim reaches parallelism only
// through runner.ShardGroup (an ordinary call, unflagged), and a
// literal go statement inside a package whose import path contains
// internal/sim is still reported. The fixture nests the files so the
// package path carries the internal/sim fragment the analyzer keys on.
func TestGoroutineShardedSim(t *testing.T) {
	runFixtureDir(t, fixtureDir(t, "goroutinesim"), []*Analyzer{Goroutine})
}

// TestImportBans pins the import half of the telemetry and faultrand
// contracts, which their call-site fixtures never reach: each stand-in
// package's path ends in the guarded package, every banned import line
// is a finding, and the fault ban covers a subpackage too. The fixtures
// live under their own roots so fixtureDir still resolves "telemetry"
// and "faultrand" to the call-site fixtures.
func TestImportBans(t *testing.T) {
	for _, tc := range []struct {
		dir string
		a   *Analyzer
	}{
		{"telemetryimports/internal/telemetry", Telemetry},
		{"faultimports/internal/fault", FaultRand},
		{"faultimports/internal/fault/invariant", FaultRand},
	} {
		runFixtureDir(t, filepath.Join("testdata", "src", tc.dir), []*Analyzer{tc.a})
	}
}

// TestDirectiveAudit runs the directive fixture with both
// order-sensitivity analyzers, wallclock and the audit, exercising one
// directive suppressing two analyzers' findings on one line,
// wrong-analyzer allows, stale directives, malformed verbs, and a
// named allow suppressing a determinism rule.
func TestDirectiveAudit(t *testing.T) {
	runFixtureDir(t, fixtureDir(t, "directive"), []*Analyzer{MapRange, FloatSum, WallClock, DirectiveAudit})
}

// TestTaintInterprocedural is the fact-propagation proof: the taint
// sources live in tieredmem/testdata/taintsrc/ext, outside internal/,
// and the findings land in the fixture package that consumes them —
// including a two-hop chain through a local variable. The untainted
// ext.Pure call on the fixture's last function yields no finding (the
// exact-match harness fails on any extra), pinning that the checks
// fire on the fact, not on the mere cross-package call.
func TestTaintInterprocedural(t *testing.T) {
	dir := fixtureDir(t, "taint")
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	requested := []*Analyzer{WallClock, Telemetry, FaultRand}
	findings := Run([]*Package{pkg}, requested)
	checkFindings(t, findings, requested, loadExpectations(t, dir))
	for _, f := range findings {
		if !strings.Contains(f.Message, "derives from") {
			t.Errorf("taint finding does not name its source: %v", f)
		}
	}
}

// TestLoadTestsVariants covers the -tests path: LoadTests yields an
// in-package and an external test variant, test-marked analyzers run
// over them, and only _test.go findings are reported (the re-checked
// base files never double-report).
func TestLoadTestsVariants(t *testing.T) {
	dir := fixtureDir(t, "testpkg")
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	base, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	variants, err := loader.LoadTests([]*Package{base})
	if err != nil {
		t.Fatalf("LoadTests: %v", err)
	}
	if len(variants) != 2 {
		t.Fatalf("LoadTests returned %d variants, want 2 (in-package and external)", len(variants))
	}
	for _, v := range variants {
		if !v.ForTest {
			t.Errorf("variant %s not marked ForTest", v.Path)
		}
	}
	requested := []*Analyzer{Goroutine}
	findings := Run(append([]*Package{base}, variants...), requested)
	for _, f := range findings {
		if !strings.HasSuffix(f.Pos.Filename, "_test.go") {
			t.Errorf("finding outside _test.go from a test run: %v", f)
		}
	}
	checkFindings(t, findings, requested, loadExpectations(t, dir))
}

// TestFixturesFailDriver asserts the driver contract on the fixture
// set as a whole: analyzing the fixtures yields findings (a non-zero
// tmplint exit), each positioned in its own fixture file.
func TestFixturesFailDriver(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	for _, a := range Analyzers() {
		dir := fixtureDir(t, a.Name)
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", a.Name, err)
		}
		findings := Run([]*Package{pkg}, Analyzers())
		found := false
		for _, f := range findings {
			if f.Analyzer != a.Name {
				continue
			}
			found = true
			if !strings.Contains(f.Pos.Filename, dir) {
				t.Errorf("finding position %s outside fixture dir %s", f.Pos, dir)
			}
			if f.Pos.Line <= 0 || f.Pos.Column <= 0 {
				t.Errorf("finding without a real position: %v", f)
			}
		}
		if !found {
			t.Errorf("fixture %s produced no %s findings", a.Name, a.Name)
		}
	}
}

// TestEngineDeterminism pins the engine's byte-stability contract:
// the same set of target packages, in any argument order, across
// repeated runs, renders the identical finding stream. The package
// walk is a pure function of the import graph (topoOrder), never of
// map iteration or caller order.
func TestEngineDeterminism(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	var pkgs []*Package
	for _, name := range []string{"taint", "telemetry", "ctrname", "densemap", "directive"} {
		pkg, err := loader.LoadDir(fixtureDir(t, name))
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", name, err)
		}
		pkgs = append(pkgs, pkg)
	}
	render := func(ps []*Package) string {
		var b strings.Builder
		for _, f := range Run(ps, Analyzers()) {
			b.WriteString(f.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	first := render(pkgs)
	if first == "" {
		t.Fatal("determinism fixture set produced no findings")
	}
	reversed := make([]*Package, len(pkgs))
	for i, p := range pkgs {
		reversed[len(pkgs)-1-i] = p
	}
	if got := render(reversed); got != first {
		t.Errorf("reversed target order changed output:\n--- forward ---\n%s--- reversed ---\n%s", first, got)
	}
	if got := render(pkgs); got != first {
		t.Errorf("repeated run changed output:\n--- first ---\n%s--- second ---\n%s", first, got)
	}
}

// TestTopoOrder pins the cross-package fact flow precondition:
// dependencies always precede dependents, and the order is identical
// regardless of the argument order.
func TestTopoOrder(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	a, err := loader.LoadDir(fixtureDir(t, "taint"))
	if err != nil {
		t.Fatalf("LoadDir(taint): %v", err)
	}
	b, err := loader.LoadDir(fixtureDir(t, "telemetry"))
	if err != nil {
		t.Fatalf("LoadDir(telemetry): %v", err)
	}
	paths := func(ps []*Package) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.Path
		}
		return out
	}
	fwd := paths(topoOrder([]*Package{a, b}))
	rev := paths(topoOrder([]*Package{b, a}))
	if strings.Join(fwd, "|") != strings.Join(rev, "|") {
		t.Errorf("topoOrder depends on argument order:\nfwd: %v\nrev: %v", fwd, rev)
	}
	index := make(map[string]int, len(fwd))
	for i, p := range fwd {
		index[p] = i
	}
	for _, p := range topoOrder([]*Package{a, b}) {
		for _, dep := range p.Imports {
			if index[dep.Path] > index[p.Path] {
				t.Errorf("dependency %s ordered after dependent %s", dep.Path, p.Path)
			}
		}
	}
}

// TestRepoIsClean is the self-check gate: the repo's own tree must be
// finding-free, so `tmplint ./...` exits 0. Any regression in the
// determinism contract fails this test before it reaches CI.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check is slow; run without -short")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("LoadAll found only %d packages; loader is missing the tree", len(pkgs))
	}
	findings := Run(pkgs, Analyzers())
	for _, f := range findings {
		t.Errorf("%v", f)
	}
}

// TestSuppressionDirective pins the directive syntax: the named
// constant is what fixture comments and repo code rely on.
func TestSuppressionDirective(t *testing.T) {
	if Directive != "tmplint:ordered" {
		t.Fatalf("Directive = %q, want tmplint:ordered", Directive)
	}
}

// TestFindingString pins the canonical finding rendering the driver
// prints.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "maprange", Message: "boom"}
	f.Pos.Filename = "x.go"
	f.Pos.Line = 3
	f.Pos.Column = 7
	got := f.String()
	want := fmt.Sprintf("x.go:3:7: [maprange] boom")
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
