package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier, used in findings and in
	// suppression directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer
	// enforces and why.
	Doc string
	// Run inspects one package: it reports findings via the pass and
	// may export facts for downstream packages' passes. Nil for
	// engine-driven analyzers (the directive audit).
	Run func(*Pass)
	// Tests marks the analyzer as meaningful over _test.go code; only
	// these run on the test packages the driver loads under -tests.
	Tests bool
	// Finish, when non-nil, runs once after every package's passes
	// with the module-wide fact view — for cross-package checks no
	// single pass can see (e.g. two packages registering the same
	// telemetry counter name).
	Finish func(*FinishPass)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package

	eng *engine
}

// Fset returns the file set positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Types returns the package's type information.
func (p *Pass) Types() *types.Info { return p.Pkg.Info }

// Path returns the package's import path.
func (p *Pass) Path() string { return p.Pkg.Path }

// TypeOf returns the type of an expression, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Reportf records a finding at pos. The engine drops it when the
// package is not an analysis target (a dependency loaded only for
// facts), when a suppression directive covers the line, or when the
// analyzer was not requested — in that order, so directive usage
// tracking does not depend on which analyzers the caller asked for.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.eng.report(p.Pkg, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Directive is the comment prefix that suppresses order-sensitivity
// findings: "//tmplint:ordered <justification>" on the flagged
// statement's line or the line directly above it. The generalized
// form "//tmplint:allow <analyzer> <justification>" suppresses one
// named analyzer the same way. Unused or malformed directives are
// themselves findings (the directive audit).
const Directive = "tmplint:ordered"

// Suppressed reports whether a tmplint:ordered directive covers pos,
// marking the directive as used when it does. Analyzers with
// scope-based suppression (floatsum honors a directive on the
// enclosing range statement) call this at report time; plain same-line
// suppression is applied by the engine and needs no analyzer code.
func (p *Pass) Suppressed(pos token.Pos) bool {
	position := p.Pkg.Fset.Position(pos)
	return p.eng.orderedAt(position.Filename, position.Line)
}

// Finding is one reported problem.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`
}

// String renders the finding in the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzers returns the full tmplint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapRange,
		WallClock,
		EpochAccount,
		FloatSum,
		Exhaustive,
		Telemetry,
		FaultRand,
		DenseMap,
		RankPath,
		CtrName,
		SentErr,
		Goroutine,
		DirectiveAudit,
	}
}

// AnalyzerTime is one analyzer's cumulative wall time across every
// package of a run (only measured when Options.Now is injected).
type AnalyzerTime struct {
	Name    string
	Elapsed time.Duration
}

// Options tunes an engine run.
type Options struct {
	// Now, when non-nil, timestamps analyzer work so the driver can
	// print per-analyzer wall time. The engine itself never reads the
	// clock (internal/ code is wallclock-clean); cmd/tmplint injects
	// time.Now.
	Now func() time.Time
}

// Run applies analyzers to pkgs and returns all findings sorted by
// position then analyzer name. See RunWithOptions.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	findings, _ := RunWithOptions(pkgs, analyzers, nil)
	return findings
}

// RunWithOptions is the engine entry point. It always executes the
// full suite (plus the taint fact provider) over pkgs and every
// module-internal dependency, in a deterministic topological package
// order, so facts flow from upstream packages into downstream passes;
// `requested` only filters which analyzers' findings are returned.
// Packages passed in are analysis targets; dependencies pulled in for
// facts never contribute findings.
func RunWithOptions(pkgs []*Package, requested []*Analyzer, opts *Options) ([]Finding, []AnalyzerTime) {
	e := &engine{
		objFacts:   make(map[objFactKey]Fact),
		pkgFacts:   make(map[pkgFactKey]Fact),
		directives: make(map[string][]*directive),
		targets:    make(map[*Package]bool),
		requested:  make(map[string]bool),
	}
	for _, p := range pkgs {
		e.targets[p] = true
	}
	for _, a := range requested {
		e.requested[a.Name] = true
	}
	e.packages = topoOrder(pkgs)
	e.collectDirectives()

	suite := append([]*Analyzer{taintFacts}, Analyzers()...)
	var now func() time.Time
	if opts != nil {
		now = opts.Now
	}
	elapsed := make([]time.Duration, len(suite))
	for _, pkg := range e.packages {
		for i, a := range suite {
			if a.Run == nil {
				continue
			}
			if pkg.ForTest && !a.Tests {
				continue
			}
			var t0 time.Time
			if now != nil {
				t0 = now()
			}
			a.Run(&Pass{Analyzer: a, Pkg: pkg, eng: e})
			if now != nil {
				elapsed[i] += now().Sub(t0)
			}
		}
	}
	for i, a := range suite {
		if a.Finish == nil {
			continue
		}
		var t0 time.Time
		if now != nil {
			t0 = now()
		}
		a.Finish(&FinishPass{Analyzer: a, eng: e})
		if now != nil {
			elapsed[i] += now().Sub(t0)
		}
	}
	e.auditDirectives()

	sort.Slice(e.findings, func(i, j int) bool {
		pi, pj := e.findings[i].Pos, e.findings[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return e.findings[i].Analyzer < e.findings[j].Analyzer
	})
	var times []AnalyzerTime
	if now != nil {
		for i, a := range suite {
			times = append(times, AnalyzerTime{Name: a.Name, Elapsed: elapsed[i]})
		}
	}
	return e.findings, times
}

// engine is the state of one RunWithOptions call: the shared fact
// store, the suppression-directive table, and the accumulated
// findings.
type engine struct {
	objFacts   map[objFactKey]Fact
	pkgFacts   map[pkgFactKey]Fact
	directives map[string][]*directive // keyed by filename
	packages   []*Package              // topological order, dependencies first
	targets    map[*Package]bool
	requested  map[string]bool
	findings   []Finding
}

// report runs one finding through the engine's filters.
func (e *engine) report(pkg *Package, f Finding) {
	if !e.targets[pkg] {
		return
	}
	if pkg.ForTest && !strings.HasSuffix(f.Pos.Filename, "_test.go") {
		// Test packages re-check the non-test files; their findings
		// already surfaced when the base package ran.
		return
	}
	if e.suppressed(f) {
		return
	}
	if !e.requested[f.Analyzer] {
		return
	}
	e.findings = append(e.findings, f)
}

// topoOrder returns pkgs plus every module-internal dependency in
// deterministic topological order: dependencies before dependents,
// ties broken by import path. The order is a pure function of the
// import graph — never of the caller's argument order or any map
// iteration — which is what lets facts flow one way and keeps tmplint
// output byte-identical across runs.
func topoOrder(pkgs []*Package) []*Package {
	closure := make(map[string]*Package)
	var visit func(*Package)
	visit = func(p *Package) {
		if _, ok := closure[p.Path]; ok {
			return
		}
		closure[p.Path] = p
		for _, dep := range p.Imports {
			visit(dep)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}

	indegree := make(map[string]int, len(closure))
	dependents := make(map[string][]*Package, len(closure))
	for _, p := range closure {
		if _, ok := indegree[p.Path]; !ok {
			indegree[p.Path] = 0
		}
		for _, dep := range p.Imports {
			indegree[p.Path]++
			dependents[dep.Path] = append(dependents[dep.Path], p)
		}
	}
	var ready []*Package
	for _, p := range closure {
		if indegree[p.Path] == 0 {
			ready = append(ready, p)
		}
	}
	var out []*Package
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return ready[i].Path < ready[j].Path })
		p := ready[0]
		ready = ready[1:]
		out = append(out, p)
		next := dependents[p.Path]
		sort.Slice(next, func(i, j int) bool { return next[i].Path < next[j].Path })
		for _, d := range next {
			indegree[d.Path]--
			if indegree[d.Path] == 0 {
				ready = append(ready, d)
			}
		}
	}
	// A cycle would strand packages; the loader rejects import cycles,
	// so emit any stragglers deterministically rather than dropping
	// them.
	if len(out) < len(closure) {
		var rest []*Package
		seen := make(map[string]bool, len(out))
		for _, p := range out {
			seen[p.Path] = true
		}
		for _, p := range closure {
			if !seen[p.Path] {
				rest = append(rest, p)
			}
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i].Path < rest[j].Path })
		out = append(out, rest...)
	}
	return out
}

// FinishPass is the module-wide view handed to an analyzer's Finish
// hook after every package has run.
type FinishPass struct {
	Analyzer *Analyzer
	eng      *engine
}

// Packages returns every analyzed package in the engine's
// deterministic topological order (dependencies first).
func (fp *FinishPass) Packages() []*Package { return fp.eng.packages }

// PackageFact returns the fact of the given kind attached to pkg, or
// nil.
func (fp *FinishPass) PackageFact(pkg *types.Package, kind string) Fact {
	return fp.eng.pkgFacts[pkgFactKey{pkg, kind}]
}

// Reportf records a finding at a position already resolved against
// the engine's file set.
func (fp *FinishPass) Reportf(pkg *Package, pos token.Position, format string, args ...any) {
	fp.eng.report(pkg, Finding{
		Analyzer: fp.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}
