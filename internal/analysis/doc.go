// Package analysis is tmplint's static-analysis engine: a
// self-contained analyzer harness built only on the standard library's
// go/parser and go/types (go.mod stays dependency-free), plus the
// repo-specific analyzers that machine-check the simulator's
// reproducibility and layering contracts — same seed, same workload,
// same per-page hotness ranks (DESIGN.md §2).
//
// ANALYSIS.md at the repo root is the reference: every analyzer's
// contract, example findings, the suppression grammar, and how to add
// an analyzer. This comment covers the engine itself.
//
// # Engine
//
// Run analyzes packages in deterministic topological import order
// (Kahn's algorithm over the import graph, lexicographic path
// tie-break), so a package is always analyzed after its dependencies
// and the order never depends on map iteration or argument order.
//
// Analyzers communicate across packages through facts: values
// attached to package-level objects (or whole packages) while
// analyzing the defining package and visible to every later pass that
// imports it. The taint pass runs first on every package — requesting
// analyzers only filters which findings are reported — and marks
// functions whose results derive from wall-clock time or global
// math/rand. rankpath and ctrname export facts of their own
// ("rankcmp", "namefunc", "ctrsites") the same way.
//
// wallclock, telemetry and faultrand are the rows of one determinism
// rule table (determinism.go) that one walker runs. They consume the
// taint facts, which makes their checks transitive across package
// boundaries, and taintSourceOf is the only code that classifies a
// wall-clock or global-rand source.
//
// Findings are filtered (suppression directives, requested set,
// test-variant scoping) and sorted by (file, line, column, analyzer),
// so output is byte-stable run to run.
//
// # Test variants
//
// Loader.LoadTests builds up to two extra passes per package: the
// in-package test variant ("path [tests]") sharing the base ASTs plus
// _test.go files, and the external test package ("path_test [tests]").
// Only analyzers with Tests: true run on variants, and only findings
// located in _test.go files are reported from them.
//
// # Adding an analyzer
//
// Create a file in this package defining a var of type *Analyzer with
// a Name (also its fixture directory name and finding tag), a Doc
// line, optionally Tests: true, and a Run func inspecting one
// type-checked *Pass (plus a Finish func for fact-consuming,
// whole-suite checks). Register it in Analyzers() in analysis.go. Add
// a fixture package under testdata/src/<name>/ whose flagged lines
// carry `// want` comments — one backquoted regexp per expected
// finding on that line; the block form /* want ... */ when the line's
// trailing // comment is itself a directive under test — and a
// one-line runFixture test in analysis_test.go. The harness checks
// positions and messages both ways (no unexpected findings, no
// unmatched expectations), and TestRepoIsClean then enforces the new
// analyzer repo-wide.
//
// # Driver
//
// cmd/tmplint loads packages through Loader (a go/parser + go/types
// loader that resolves module-internal imports itself and delegates
// the standard library to the source importer), runs the suite, and
// prints findings as text, JSON (-json / -format=json, carrying each
// analyzer's doc), or GitHub Actions annotations (-format=github),
// exiting 1 when anything is found. -tests adds the test variants;
// -times prints per-analyzer wall time. scripts/check.sh and CI's
// lint job wire it into the repo gate next to go vet, gofmt, and
// go test -race.
package analysis
