package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Goroutine fences concurrency into the two packages built for it.
// The determinism contract says parallelism lives in internal/runner
// (the worker pool with submission-order reassembly, including the
// ShardGroup fork-join primitive the sharded placement pipeline rides on)
// and internal/telemetry (the tracer's drain); everywhere else in
// internal/, a `go` statement, a channel, a select, or a sync.Map is a
// second scheduler sneaking into a simulator whose outputs must be a
// pure function of (seed, config). internal/sim parallelizes by
// submitting pure per-cell jobs to runner.ShardGroup — an ordinary
// call — never by spawning goroutines itself. Flagged: go statements, channel
// types (which covers make(chan …) and signatures), send statements,
// select statements, and sync.Map mentions. sync.Mutex/WaitGroup are
// deliberately not flagged — guarding shared state is fine; creating
// schedule-dependent orderings is not.
var Goroutine = &Analyzer{
	Name:  "goroutine",
	Doc:   "forbids go statements, channels, select, and sync.Map outside internal/runner and internal/telemetry",
	Run:   runGoroutine,
	Tests: true,
}

func runGoroutine(pass *Pass) {
	path := pass.Path()
	if !strings.Contains(path, "internal/") {
		return
	}
	if inPkg(path, "internal/runner") || inPkg(path, "internal/telemetry") {
		return
	}
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(e.Pos(), "go statement outside internal/runner: submit work to the pool, which reassembles results in submission order")
			case *ast.ChanType:
				pass.Reportf(e.Pos(), "channel outside internal/runner and internal/telemetry: channel scheduling orders are nondeterministic; pass data through the pool's submission-order results")
			case *ast.SendStmt:
				pass.Reportf(e.Pos(), "channel send outside internal/runner and internal/telemetry")
			case *ast.SelectStmt:
				pass.Reportf(e.Pos(), "select outside internal/runner and internal/telemetry: arbitrary-choice scheduling is nondeterministic")
			case *ast.SelectorExpr:
				if pkgID, ok := e.X.(*ast.Ident); ok && e.Sel.Name == "Map" {
					if pn, ok := pass.Types().ObjectOf(pkgID).(*types.PkgName); ok && pn.Imported().Path() == "sync" {
						pass.Reportf(e.Pos(), "sync.Map outside internal/runner and internal/telemetry: iteration order is nondeterministic; use a plain map with a mutex, or a dense column")
					}
				}
			}
			return true
		})
	}
}
