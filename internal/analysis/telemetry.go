package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Telemetry guards the observability layer's determinism contract from
// both sides. Inside internal/telemetry it forbids importing "time"
// and math/rand entirely — the package stores virtual timestamps it is
// handed and must have no way to mint its own. At every emit site —
// including cmd/ mains, which the wallclock analyzer deliberately does
// not cover — it rejects arguments to telemetry functions that
// lexically contain a wall-clock read (any of wallTimeSources) or a
// global math/rand draw: one wall-clock stamp in the event stream and
// the exported trace stops being byte-identical across runs and pool
// widths.
var Telemetry = &Analyzer{
	Name: "telemetry",
	Doc:  "forbids wall-clock or global-rand values flowing into telemetry calls, and time/math-rand imports inside internal/telemetry",
	Run:  runTelemetry,
}

// telemetryPkgSuffix identifies the telemetry package by import path.
const telemetryPkgSuffix = "internal/telemetry"

func runTelemetry(pass *Pass) {
	if strings.HasSuffix(pass.Path(), telemetryPkgSuffix) {
		for _, file := range pass.Files() {
			for _, imp := range file.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				switch path {
				case "time", "math/rand", "math/rand/v2":
					pass.Reportf(imp.Pos(), "internal/telemetry imports %q: the telemetry layer records virtual time it is handed and must not be able to mint wall-clock or random values", path)
				}
			}
		}
		// The package cannot call itself into trouble without the
		// imports above, so the argument scan below is for callers.
		return
	}
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isTelemetryCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				checkTelemetryArg(pass, arg)
			}
			return true
		})
	}
}

// isTelemetryCall reports whether the call's callee is a function or
// method defined in internal/telemetry.
func isTelemetryCall(pass *Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return false
	}
	fobj, ok := pass.Types().ObjectOf(id).(*types.Func)
	if !ok || fobj.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(fobj.Pkg().Path(), telemetryPkgSuffix)
}

// checkTelemetryArg flags wall-clock reads and global rand draws
// anywhere inside one argument expression — both direct (time.Now in
// the argument) and laundered (a call to a function whose taint fact
// says its result derives from the clock or global rand).
func checkTelemetryArg(pass *Pass, arg ast.Expr) {
	ast.Inspect(arg, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeOf(pass, call); fn != nil && fn.Pkg() != nil {
				if f, _ := pass.ObjectFact(fn, "taint").(*taintFact); f != nil {
					if f.Wall {
						pass.Reportf(call.Pos(), "wall-clock-derived value flows into a telemetry call: %s.%s derives from %s", fn.Pkg().Name(), fn.Name(), f.Via)
					} else if f.Rand {
						pass.Reportf(call.Pos(), "global-rand-derived value flows into a telemetry call: %s.%s derives from %s", fn.Pkg().Name(), fn.Name(), f.Via)
					}
				}
			}
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.Types().ObjectOf(pkgID).(*types.PkgName)
		if !ok {
			return true
		}
		if _, isFunc := pass.Types().ObjectOf(sel.Sel).(*types.Func); !isFunc {
			return true
		}
		name := sel.Sel.Name
		switch pn.Imported().Path() {
		case "time":
			if wallTimeSources[name] {
				pass.Reportf(sel.Pos(), "wall-clock time.%s flows into a telemetry call: events must carry virtual time only", name)
			}
		case "math/rand", "math/rand/v2":
			if !wallClockAllowedRand[name] {
				pass.Reportf(sel.Pos(), "global rand.%s flows into a telemetry call: telemetry must be deterministic", name)
			}
		}
		return true
	})
}
