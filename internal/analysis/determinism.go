package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// WallClock forbids wall-clock time and process-global randomness in
// internal/ packages. All simulator time is virtual cycles and all
// randomness must flow from an explicitly seeded *rand.Rand, or the
// same seed stops producing the same per-page hotness ranks. Its row
// scans every internal/ file, flags time.Sleep besides the sources
// (it stalls on the host clock but taints no data), and counts
// laundering only through callees outside internal/: a tainted
// internal/ callee's own body already carries the direct finding.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbids wall-clock time APIs, global math/rand, and taint-laundering calls in internal/ packages",
	Run:  wallClockRule.run,
}

// Telemetry guards the observability layer from both sides.
// internal/telemetry may not import time or math/rand, so it can only
// record the virtual time it is handed; and no wall-clock or
// global-rand value may reach an argument of a telemetry call from
// anywhere, cmd/ mains included. One wall-clock stamp in the event
// stream and the exported trace stops being byte-identical across runs
// and pool widths.
var Telemetry = &Analyzer{
	Name: "telemetry",
	Doc:  "forbids wall-clock or global-rand values flowing into telemetry calls, and time/math-rand imports inside internal/telemetry",
	Run:  telemetryRule.run,
}

// FaultRand guards the fault plane from both sides. internal/fault
// and its subpackages may not import time, math/rand or crypto/rand:
// the plane's only randomness is its seed-derived splitmix64 streams,
// so the same seed and spec replay the same injection sequence. And
// no wall-clock or global-rand value may reach an argument of a
// fault-package call from anywhere, cmd/ mains included: one
// fault.New(spec, time.Now().UnixNano()) and chaos runs stop being
// reproducible.
var FaultRand = &Analyzer{
	Name: "faultrand",
	Doc:  "forbids time/math-rand/crypto-rand imports inside internal/fault, and wall-clock or global-rand seeds flowing into fault-package calls",
	Run:  faultRandRule.run,
}

// detRule is one row of the determinism rule table, which keeps the
// wall clock and the global rand source out of the simulator, its
// telemetry and its fault plane. Every row runs the same walker, and
// taintSourceOf (taint.go) alone decides what counts as a source.
type detRule struct {
	// pkg is the guarded package, subpackages included: "" for the
	// wallclock row, whose region is every file of every internal/
	// package; otherwise a sink whose region is each argument of a
	// call into pkg.
	pkg string
	// banned lists the imports forbidden inside pkg.
	banned []string
	// Finding wording. importMsg takes the import path, wallMsg and
	// randMsg the source's name, and the launder formats the tainted
	// callee's package and name and the source it derives from.
	importMsg, wallMsg, randMsg, launderWall, launderRand string
}

var (
	wallClockRule = &detRule{
		wallMsg:     "time.%s in internal/ code: simulator time must be virtual cycles, not wall clock",
		randMsg:     "global rand.%s in internal/ code: randomness must come from an explicitly seeded *rand.Rand",
		launderWall: "call to %s.%s launders wall-clock time into internal/ code (result derives from %s)",
		launderRand: "call to %s.%s launders global randomness into internal/ code (result derives from %s)",
	}
	telemetryRule = &detRule{
		pkg:         "internal/telemetry",
		banned:      []string{"time", "math/rand", "math/rand/v2"},
		importMsg:   "internal/telemetry imports %q: the telemetry layer records virtual time it is handed and must not be able to mint wall-clock or random values",
		wallMsg:     "wall-clock time.%s flows into a telemetry call: events must carry virtual time only",
		randMsg:     "global rand.%s flows into a telemetry call: telemetry must be deterministic",
		launderWall: "wall-clock-derived value flows into a telemetry call: %s.%s derives from %s",
		launderRand: "global-rand-derived value flows into a telemetry call: %s.%s derives from %s",
	}
	faultRandRule = &detRule{
		pkg:         "internal/fault",
		banned:      []string{"time", "math/rand", "math/rand/v2", "crypto/rand"},
		importMsg:   "internal/fault imports %q: fault decisions must draw only from the plane's seed-derived splitmix64 streams",
		wallMsg:     "wall-clock time.%s flows into a fault-package call: fault decisions must be seeded from the run seed, not the clock",
		randMsg:     "global rand.%s flows into a fault-package call: fault decisions must be seeded deterministically",
		launderWall: "wall-clock-derived value flows into a fault-package call: %s.%s derives from %s",
		launderRand: "global-rand-derived value flows into a fault-package call: %s.%s derives from %s",
	}
)

// run is the walker every row shares. Inside the guarded package it
// reports the banned imports and stops: without them the package
// cannot mint a clock or global-rand value, so the region scan is for
// its callers. Everywhere else it scans the row's region.
func (r *detRule) run(pass *Pass) {
	switch {
	case r.pkg == "":
		if strings.Contains(pass.Path(), "internal/") {
			for _, file := range pass.Files() {
				r.scan(pass, file)
			}
		}
	case inPkg(pass.Path(), r.pkg):
		for _, file := range pass.Files() {
			for _, imp := range file.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); slices.Contains(r.banned, path) {
					pass.Reportf(imp.Pos(), r.importMsg, path)
				}
			}
		}
	default:
		for _, file := range pass.Files() {
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := calleeOf(pass, call); fn != nil && fn.Pkg() != nil && inPkg(fn.Pkg().Path(), r.pkg) {
						for _, arg := range call.Args {
							r.scan(pass, arg)
						}
					}
				}
				return true
			})
		}
	}
}

// scan reports every wall-clock or global-rand value inside n: a
// selector naming a source function (direct), and a call whose callee
// carries a taint fact (laundered).
func (r *detRule) scan(pass *Pass, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			fn, _ := pass.Types().ObjectOf(x.Sel).(*types.Func)
			if fn == nil {
				return true
			}
			wall, rnd := taintSourceOf(fn)
			if wall || r.pkg == "" && fn.FullName() == "time.Sleep" {
				pass.Reportf(x.Pos(), r.wallMsg, fn.Name())
			} else if rnd {
				pass.Reportf(x.Pos(), r.randMsg, fn.Name())
			}
		case *ast.CallExpr:
			fn := calleeOf(pass, x)
			if fn == nil || fn.Pkg() == nil || r.pkg == "" && strings.Contains(fn.Pkg().Path(), "internal/") {
				return true
			}
			if f, _ := pass.ObjectFact(fn, "taint").(*taintFact); f != nil {
				msg := r.launderRand
				if f.Wall {
					msg = r.launderWall
				}
				pass.Reportf(x.Pos(), msg, fn.Pkg().Name(), fn.Name(), f.Via)
			}
		}
		return true
	})
}

// inPkg reports whether the import path names pkg or one of its
// subpackages, for a base package and for the " [tests]" and
// "_test [tests]" variants LoadTests builds.
func inPkg(path, pkg string) bool {
	if base, ok := strings.CutSuffix(path, " [tests]"); ok {
		path = strings.TrimSuffix(base, "_test")
	}
	return strings.HasSuffix(path, pkg) || strings.Contains(path, pkg+"/")
}
