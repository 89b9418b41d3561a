package tieredmem_test

// Docs-sync tests: the counter and histogram lists in OBSERVABILITY.md
// are checked in both directions against the names a fully
// instrumented run actually registers, ANALYSIS.md's analyzer sections
// against the tmplint suite, DESIGN.md's module inventory against
// the package tree, and the stated page-descriptor layout against the
// struct. A new runtime metric, analyzer or package without
// a doc entry fails, and so does a documented name that no longer
// exists — the doc cannot drift from the code.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"tieredmem/internal/analysis"
	"tieredmem/internal/core"
	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
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

// readFile returns a repository file's contents.
func readFile(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(raw)
}

// commands lists the commands, one per cmd/*/main.go, sorted.
func commands() []string {
	paths, _ := filepath.Glob("cmd/*/main.go")
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = filepath.Base(filepath.Dir(p))
	}
	return names
}

// TestDocsSyncFlags keeps the docs' command attributions for flags
// honest. Each row quotes a doc's attribution fragment verbatim (with
// whitespace folded, so line wrapping does not matter): the doc must
// still contain it and name every flag of the row, and the commands
// the fragment names in backticks must be exactly the commands whose
// main.go defines each flag. A doc that credits a command with a flag
// it lacks, or misses a command that has it, fails.
func TestDocsSyncFlags(t *testing.T) {
	named := regexp.MustCompile("`(tmp[a-z]+)\\b")
	telemetryFlags := []string{"trace", "events", "metrics", "cpuprofile", "memprofile"}
	for _, tc := range []struct {
		doc, fragment string
		flags         []string
	}{
		{"OBSERVABILITY.md", "`tmpsim`, `tmpprof` and `tmpbench` all take the same trio of telemetry flags and the pprof pair", telemetryFlags},
		{"OBSERVABILITY.md", "`tmpsim` additionally takes the decision-provenance pair", []string{"prov", "why"}},
		{"OBSERVABILITY.md", "`tmpsim` also takes the transactional-migration pair", []string{"txmig", "admission"}},
		{"README.md", "`tmpsim`, `tmpprof` and `tmpbench` share the telemetry flags", telemetryFlags},
		{"ROBUSTNESS.md", "`tmpsim -txmig` (or `PlacementConfig.TxMigration`) replaces", []string{"txmig"}},
		{"ROBUSTNESS.md", "`tmpsim` rejects a non-finite `-admission` as a usage error", []string{"admission"}},
	} {
		doc := strings.Join(strings.Fields(readFile(t, tc.doc)), " ")
		if !strings.Contains(doc, tc.fragment) {
			t.Errorf("%s no longer says %q; update the doc or this row", tc.doc, tc.fragment)
			continue
		}
		var want []string
		for _, m := range named.FindAllStringSubmatch(tc.fragment, -1) {
			want = append(want, m[1])
		}
		slices.Sort(want)
		for _, f := range tc.flags {
			if !strings.Contains(doc, "-"+f) {
				t.Errorf("%s never mentions -%s; document the flag or drop it from this row", tc.doc, f)
			}
			def := regexp.MustCompile(`flag\.\w+\("` + regexp.QuoteMeta(f) + `"`)
			var got []string
			for _, c := range commands() {
				if def.MatchString(readFile(t, filepath.Join("cmd", c, "main.go"))) {
					got = append(got, c)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s says %q, naming %v for -%s, but the commands that define it are %v", tc.doc, tc.fragment, want, f, got)
			}
		}
	}
}

// TestDocsSyncCommands pins README's "Command-line tools" table and its
// Layout `cmd/` line to the commands, both directions.
func TestDocsSyncCommands(t *testing.T) {
	readme := readFile(t, "README.md")
	_, tools, _ := strings.Cut(readme, "\n## Command-line tools\n")
	tools, _, _ = strings.Cut(tools, "\n## ")
	var table, layout []string
	for _, m := range regexp.MustCompile("(?m)^\\| `cmd/([a-z]+)` \\|").FindAllStringSubmatch(tools, -1) {
		table = append(table, m[1])
	}
	if m := regexp.MustCompile(`(?m)^cmd/ +(.+)$`).FindStringSubmatch(readme); m != nil {
		layout = strings.Split(m[1], ", ")
	}
	for _, got := range []struct {
		where string
		names []string
	}{{"Command-line tools table", table}, {"Layout cmd/ line", layout}} {
		slices.Sort(got.names)
		if want := commands(); !slices.Equal(got.names, want) {
			t.Errorf("README's %s names %v, want the commands %v", got.where, got.names, want)
		}
	}
}

// TestDocsSyncProvenanceLines pins OBSERVABILITY.md's example run, page
// and decision lines to the keys WriteLog emits for each line type, in
// order, so a field added to or dropped from the log shows in the doc.
func TestDocsSyncProvenanceLines(t *testing.T) {
	var buf bytes.Buffer
	err := provenance.WriteLog(&buf, []provenance.Log{{Schema: telemetry.SchemaVersion,
		Pages: []provenance.PageLog{{Records: []provenance.Record{{}}}}}})
	if err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	doc := readFile(t, "OBSERVABILITY.md")
	key := regexp.MustCompile(`"(\w+)":`)
	keys := func(line string) (out []string) {
		for _, m := range key.FindAllStringSubmatch(line, -1) {
			out = append(out, m[1])
		}
		return out
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		typ := regexp.MustCompile(`^\{"type":"(\w+)"`).FindStringSubmatch(line)[1]
		docLines := regexp.MustCompile(`(?m)^\{"type":"`+typ+`".*$`).FindAllString(doc, -1)
		if len(docLines) != 1 {
			t.Errorf("OBSERVABILITY.md has %d example %s lines, want 1", len(docLines), typ)
		} else if got, want := keys(docLines[0]), keys(line); !slices.Equal(got, want) {
			t.Errorf("OBSERVABILITY.md's %s line has keys %v, WriteLog emits %v", typ, got, want)
		}
	}
}

// TestDocsSyncModules pins DESIGN.md's "System inventory" table to the
// Go package directories under internal/, cmd/ and examples/ (testdata
// excluded), both directions: a package without a row fails, and so
// does a row whose package is gone.
func TestDocsSyncModules(t *testing.T) {
	_, section, _ := strings.Cut(readFile(t, "DESIGN.md"), "\n## 3. System inventory")
	section, _, _ = strings.Cut(section, "\n## ")
	var rows, pkgs []string
	for _, m := range regexp.MustCompile("(?m)^\\| `((?:internal|cmd|examples)/[a-z0-9_/]+)`").FindAllStringSubmatch(section, -1) {
		rows = append(rows, m[1])
	}
	slices.Sort(rows)
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				pkgs = append(pkgs, filepath.ToSlash(filepath.Dir(path)))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(pkgs)
	pkgs = slices.Compact(pkgs)

	if !slices.Equal(rows, pkgs) {
		t.Errorf("DESIGN.md §3 rows %v,\nwant the package directories %v", rows, pkgs)
	}
}

// TestDocsSyncLayouts pins the page descriptor's stated layout to the
// struct: the byte count DESIGN.md §3's `internal/mem` row gives, and
// PERFORMANCE.md's storage-rules table, whose rows must name
// mem.PageDescriptor's fields in order with each field's size and no
// padding left over.
func TestDocsSyncLayouts(t *testing.T) {
	typ := reflect.TypeOf(mem.PageDescriptor{})
	size := int(unsafe.Sizeof(mem.PageDescriptor{}))

	_, design, _ := strings.Cut(readFile(t, "DESIGN.md"), "\n## 3. System inventory")
	row := regexp.MustCompile("(?m)^\\| `internal/mem` \\|.*$").FindString(design)
	if m := regexp.MustCompile(`A (\d+)-byte descriptor`).FindStringSubmatch(row); m == nil {
		t.Errorf("DESIGN.md §3's internal/mem row states no \"A N-byte descriptor\":\n%s", row)
	} else if m[1] != strconv.Itoa(size) {
		t.Errorf("DESIGN.md §3 says a %s-byte descriptor; mem.PageDescriptor is %d bytes", m[1], size)
	}

	_, rules, _ := strings.Cut(readFile(t, "PERFORMANCE.md"), "\n### Storage rules\n")
	rules, _, _ = strings.Cut(rules, "\n### ")
	_, table, ok := strings.Cut(rules, "| field | bytes | why this width |")
	if !ok {
		t.Fatal("PERFORMANCE.md's storage rules have no descriptor table")
	}
	var names []string
	total := 0
	for _, m := range regexp.MustCompile("(?m)^ *\\| `(\\w+)` \\| (\\d+) \\|").FindAllStringSubmatch(table, -1) {
		names = append(names, m[1])
		n, _ := strconv.Atoi(m[2])
		total += n
		if f, ok := typ.FieldByName(m[1]); !ok {
			t.Errorf("PERFORMANCE.md's descriptor table lists %s, which mem.PageDescriptor lacks", m[1])
		} else if int(f.Type.Size()) != n {
			t.Errorf("PERFORMANCE.md gives %s %d bytes; it is %d", m[1], n, f.Type.Size())
		}
	}
	var fields []string
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if !slices.Equal(names, fields) {
		t.Errorf("PERFORMANCE.md's descriptor table rows are %v; mem.PageDescriptor's fields are %v", names, fields)
	}
	if total != size {
		t.Errorf("PERFORMANCE.md's descriptor table sums to %d bytes; mem.PageDescriptor is %d", total, size)
	}
	if heading := fmt.Sprintf("One evidence record per frame, %d bytes", size); !strings.Contains(rules, heading) {
		t.Errorf("PERFORMANCE.md's storage rules do not say %q", heading)
	}
}
