package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// FaultRand guards the fault plane's determinism contract from both
// sides. Inside internal/fault it forbids importing "time",
// "math/rand" (either version), and "crypto/rand" entirely — the
// plane's only randomness is its package-local splitmix64 streams
// derived from the run seed, so the same seed and spec replay the same
// injection sequence across runs, pool widths, and Go releases. At
// every call into the fault package from anywhere else (cmd/ mains
// included, which the wallclock analyzer deliberately skips) it
// rejects arguments that lexically contain a wall-clock read or a
// global rand draw: one `fault.New(spec, time.Now().UnixNano())` and
// chaos runs stop being reproducible.
var FaultRand = &Analyzer{
	Name: "faultrand",
	Doc:  "forbids time/math-rand/crypto-rand imports inside internal/fault, and wall-clock or global-rand seeds flowing into fault-package calls",
	Run:  runFaultRand,
}

// faultPkgSuffix identifies the fault plane (and its subpackages) by
// import path.
const faultPkgSuffix = "internal/fault"

// isFaultPkg reports whether path is internal/fault or one of its
// subpackages (internal/fault/invariant).
func isFaultPkg(path string) bool {
	return strings.HasSuffix(path, faultPkgSuffix) ||
		strings.Contains(path, faultPkgSuffix+"/")
}

func runFaultRand(pass *Pass) {
	if isFaultPkg(pass.Path()) {
		for _, file := range pass.Files() {
			for _, imp := range file.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				switch path {
				case "time", "math/rand", "math/rand/v2", "crypto/rand":
					pass.Reportf(imp.Pos(), "internal/fault imports %q: fault decisions must draw only from the plane's seed-derived splitmix64 streams", path)
				}
			}
		}
		// Without those imports the package cannot break its own
		// contract; the argument scan below is for callers.
		return
	}
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isFaultCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				checkFaultArg(pass, arg)
			}
			return true
		})
	}
}

// isFaultCall reports whether the call's callee is a function or
// method defined in the fault package.
func isFaultCall(pass *Pass, call *ast.CallExpr) bool {
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
	return isFaultPkg(fobj.Pkg().Path())
}

// checkFaultArg flags wall-clock reads and global rand draws anywhere
// inside one argument expression — both direct (time.Now in the
// argument) and laundered (a call to a function whose taint fact says
// its result derives from the clock or global rand).
func checkFaultArg(pass *Pass, arg ast.Expr) {
	ast.Inspect(arg, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeOf(pass, call); fn != nil && fn.Pkg() != nil {
				if f, _ := pass.ObjectFact(fn, "taint").(*taintFact); f != nil {
					if f.Wall {
						pass.Reportf(call.Pos(), "wall-clock-derived value flows into a fault-package call: %s.%s derives from %s", fn.Pkg().Name(), fn.Name(), f.Via)
					} else if f.Rand {
						pass.Reportf(call.Pos(), "global-rand-derived value flows into a fault-package call: %s.%s derives from %s", fn.Pkg().Name(), fn.Name(), f.Via)
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
				pass.Reportf(sel.Pos(), "wall-clock time.%s flows into a fault-package call: fault decisions must be seeded from the run seed, not the clock", name)
			}
		case "math/rand", "math/rand/v2":
			if !wallClockAllowedRand[name] {
				pass.Reportf(sel.Pos(), "global rand.%s flows into a fault-package call: fault decisions must be seeded deterministically", name)
			}
		}
		return true
	})
}
