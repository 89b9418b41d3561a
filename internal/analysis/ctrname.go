package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CtrName enforces the telemetry naming contract: every counter is
// registered under a constant `<subsystem>/<metric>` name (lowercase
// [a-z0-9_] segments joined by "/"), exactly once across the module.
// Ad-hoc string concatenation at registration sites produces names no
// dashboard can grep for and lets two subsystems silently share a
// counter. Dynamic names must go through telemetry.Name, which
// sanitizes parts into the same alphabet — or through a helper whose
// every return is a well-shaped constant, which earns a "namefunc"
// fact and may be called cross-package.
var CtrName = &Analyzer{
	Name:   "ctrname",
	Doc:    "requires constant <subsystem>/<metric> telemetry counter names (or telemetry.Name / namefunc helpers), registered once",
	Run:    runCtrName,
	Finish: finishCtrName,
}

// nameFuncFact marks a function whose every return value is a
// well-shaped constant counter name.
type nameFuncFact struct{}

func (nameFuncFact) FactKind() string { return "namefunc" }

// ctrSitesFact records, per package, every constant counter name and
// the sites registering it, for the module-wide duplicate check.
type ctrSitesFact struct {
	sites map[string][]token.Position
}

func (*ctrSitesFact) FactKind() string { return "ctrsites" }

func runCtrName(pass *Pass) {
	exportNameFuncFacts(pass)
	// internal/telemetry's own delegation (Tracer.Counter forwarding to
	// Registry.Counter) is the API's plumbing, not a registration site;
	// the contract binds callers.
	if inPkg(pass.Path(), "internal/telemetry") {
		return
	}
	sites := make(map[string][]token.Position)
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isCounterRegistration(pass, call) || len(call.Args) != 1 {
				return true
			}
			arg := call.Args[0]
			if name, ok := constString(pass, arg); ok {
				if !wellShapedCtrName(name) {
					pass.Reportf(arg.Pos(), "telemetry counter name %q is not <subsystem>/<metric> shaped (lowercase [a-z0-9_] segments joined by /)", name)
					return true
				}
				sites[name] = append(sites[name], pass.Fset().Position(arg.Pos()))
				return true
			}
			if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
				if fn := calleeOf(pass, inner); fn != nil {
					if isTelemetryNameHelper(fn) || pass.ObjectFact(fn, "namefunc") != nil {
						return true
					}
				}
			}
			pass.Reportf(arg.Pos(), "telemetry counter registered with a non-constant name: use a constant <subsystem>/<metric> string, telemetry.Name(parts...), or a helper whose every return is a well-shaped constant")
			return true
		})
	}
	if len(sites) > 0 {
		pass.ExportPackageFact(&ctrSitesFact{sites: sites})
	}
}

// finishCtrName runs the module-wide duplicate check: the same
// constant name registered at two distinct source sites means two
// subsystems share (or fight over) one counter.
func finishCtrName(fp *FinishPass) {
	type site struct {
		pkg *Package
		pos token.Position
	}
	first := make(map[string]site)
	for _, pkg := range fp.Packages() {
		if pkg.ForTest {
			continue
		}
		f, _ := fp.PackageFact(pkg.Types, "ctrsites").(*ctrSitesFact)
		if f == nil {
			continue
		}
		names := make([]string, 0, len(f.sites))
		for name := range f.sites {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, pos := range f.sites[name] {
				if prev, ok := first[name]; ok && prev.pos != pos {
					fp.Reportf(pkg, pos, "telemetry counter %q already registered at %s: counter names must be unique across the module", name, prev.pos)
					continue
				}
				if _, ok := first[name]; !ok {
					first[name] = site{pkg: pkg, pos: pos}
				}
			}
		}
	}
}

// isCounterRegistration reports whether the call registers a counter:
// a Counter method on internal/telemetry's Registry or Tracer.
func isCounterRegistration(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeOf(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Name() != "Counter" {
		return false
	}
	if !inPkg(fn.Pkg().Path(), "internal/telemetry") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isTelemetryNameHelper reports whether fn is telemetry.Name, the
// sanctioned dynamic-name constructor (it sanitizes every part into
// the counter alphabet).
func isTelemetryNameHelper(fn *types.Func) bool {
	return fn.Name() == "Name" && fn.Pkg() != nil &&
		inPkg(fn.Pkg().Path(), "internal/telemetry")
}

// constString returns e's compile-time string value, if it has one.
func constString(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Types().Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// wellShapedCtrName reports whether name is lowercase [a-z0-9_]
// segments joined by "/", at least two deep.
func wellShapedCtrName(name string) bool {
	segs := strings.Split(name, "/")
	if len(segs) < 2 {
		return false
	}
	for _, seg := range segs {
		if seg == "" {
			return false
		}
		for _, r := range seg {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' {
				return false
			}
		}
	}
	return true
}

// exportNameFuncFacts publishes a namefunc fact for every function or
// method whose every return is a well-shaped constant counter name (or
// a call to another namefunc helper).
func exportNameFuncFacts(pass *Pass) {
	for _, file := range pass.Files() {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !returnsSingleString(fd.Type) {
				continue
			}
			obj, _ := pass.Types().Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			good, returns := true, 0
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				returns++
				if len(ret.Results) != 1 {
					good = false
					return true
				}
				if name, ok := constString(pass, ret.Results[0]); ok && wellShapedCtrName(name) {
					return true
				}
				if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
					if fn := calleeOf(pass, call); fn != nil {
						if isTelemetryNameHelper(fn) || pass.ObjectFact(fn, "namefunc") != nil {
							return true
						}
					}
				}
				good = false
				return true
			})
			if good && returns > 0 {
				pass.ExportObjectFact(obj, nameFuncFact{})
			}
		}
	}
}

// returnsSingleString reports whether the signature returns exactly
// one string.
func returnsSingleString(ft *ast.FuncType) bool {
	if ft.Results == nil || len(ft.Results.List) != 1 || len(ft.Results.List[0].Names) > 1 {
		return false
	}
	id, ok := ft.Results.List[0].Type.(*ast.Ident)
	return ok && id.Name == "string"
}
