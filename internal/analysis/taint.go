package analysis

import (
	"go/ast"
	"go/types"
)

// taintFact marks a function whose result derives from the wall clock
// or the process-global rand source — directly, through local
// dataflow, or transitively through calls to other tainted functions
// (same-package via the provider's fixed point, cross-package via the
// engine's topological fact flow). Consumers (wallclock, telemetry,
// faultrand) use it to catch laundering: a helper in a package where
// time.Now is legal (cmd/, the module root) feeding nondeterminism
// into code where it is not.
type taintFact struct {
	Wall bool
	Rand bool
	// Via names the ultimate source, e.g. "time.Now" or "rand.Int63",
	// for findings several hops away from it.
	Via string
}

func (*taintFact) FactKind() string { return "taint" }

// taintFacts computes taint facts for every package. It reports
// nothing itself; it runs first in the engine's suite so the facts are
// visible to the same package's later passes as well as to downstream
// packages.
var taintFacts = &Analyzer{
	Name: "taint",
	Doc:  "exports wall-clock/global-rand taint facts about function results (no findings of its own)",
	Run:  runTaintFacts,
}

// wallTimeSources lists the time package's functions whose results
// derive from the wall clock. time.Sleep is deliberately absent: it
// stalls the process but returns nothing, so the wallclock row flags
// it directly yet it taints no data.
var wallTimeSources = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"AfterFunc": true,
}

// seededRand lists the math/rand (and math/rand/v2) package-level
// functions that build seeded sources instead of drawing from the
// global one.
var seededRand = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// taintSourceOf classifies a callee as a primary taint source: the one
// classifier the taint facts and every determinism rule's direct
// check share.
func taintSourceOf(fn *types.Func) (wall, rnd bool) {
	if fn == nil || fn.Pkg() == nil {
		return false, false
	}
	// Methods (t.Sub, r.Intn on a seeded *rand.Rand) operate on values
	// they are handed; only package-level functions mint taint.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false, false
	}
	switch fn.Pkg().Path() {
	case "time":
		return wallTimeSources[fn.Name()], false
	case "math/rand", "math/rand/v2":
		return false, !seededRand[fn.Name()]
	}
	return false, false
}

// calleeOf resolves a call expression's static callee, or nil for
// dynamic calls (function values, interface methods). An explicit
// instantiation, f[T](…) or pkg.F[K, V](…), resolves to the generic
// function it instantiates, and a method of an instantiated type,
// Box[int]{}.M(), to the generic type's method: facts are exported on
// the declared objects.
func calleeOf(pass *Pass, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var f *types.Func
	switch fn := fun.(type) {
	case *ast.Ident:
		f, _ = pass.Types().ObjectOf(fn).(*types.Func)
	case *ast.SelectorExpr:
		f, _ = pass.Types().ObjectOf(fn.Sel).(*types.Func)
	}
	if f == nil {
		return nil
	}
	return f.Origin()
}

// callTaint reports the taint carried by one call's result: a primary
// source, a same-package function from the in-progress fixed point, or
// a fact exported by an upstream package.
func callTaint(pass *Pass, call *ast.CallExpr, local map[*types.Func]*taintFact) taintFact {
	fn := calleeOf(pass, call)
	if fn == nil {
		return taintFact{}
	}
	if wall, rnd := taintSourceOf(fn); wall || rnd {
		return taintFact{Wall: wall, Rand: rnd, Via: fn.Pkg().Name() + "." + fn.Name()}
	}
	if f := local[fn]; f != nil {
		return *f
	}
	if f, _ := pass.ObjectFact(fn, "taint").(*taintFact); f != nil {
		return *f
	}
	return taintFact{}
}

func runTaintFacts(pass *Pass) {
	var fns []*ast.FuncDecl
	for _, file := range pass.Files() {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fns = append(fns, fd)
			}
		}
	}
	// Fixed point over the package's functions: mutual recursion and
	// declaration order cannot hide a taint path.
	local := make(map[*types.Func]*taintFact)
	for changed := true; changed; {
		changed = false
		for _, fd := range fns {
			obj, _ := pass.Types().Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			t := funcResultTaint(pass, fd, local)
			cur := local[obj]
			if (t.Wall && (cur == nil || !cur.Wall)) || (t.Rand && (cur == nil || !cur.Rand)) {
				if cur == nil {
					cur = &taintFact{}
					local[obj] = cur
				}
				cur.Wall = cur.Wall || t.Wall
				cur.Rand = cur.Rand || t.Rand
				if cur.Via == "" {
					cur.Via = t.Via
				}
				changed = true
			}
		}
	}
	// Export in declaration order: the fact store is keyed by object,
	// so order cannot matter, but iterating the map here would still
	// trip maprange — and the suite must hold itself to its own rules.
	for _, fd := range fns {
		obj, _ := pass.Types().Defs[fd.Name].(*types.Func)
		if f := local[obj]; obj != nil && f != nil {
			pass.ExportObjectFact(obj, f)
		}
	}
}

// funcResultTaint decides whether fd's results carry taint: it runs a
// small dataflow over the body (assignments propagate taint into local
// variables) and then checks every return path, including naked
// returns of tainted named results.
func funcResultTaint(pass *Pass, fd *ast.FuncDecl, local map[*types.Func]*taintFact) taintFact {
	tainted := make(map[types.Object]taintFact)

	exprTaint := func(e ast.Expr) taintFact {
		var out taintFact
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				out = mergeTaint(out, callTaint(pass, x, local))
			case *ast.Ident:
				if obj := pass.Types().ObjectOf(x); obj != nil {
					if f, ok := tainted[obj]; ok {
						out = mergeTaint(out, f)
					}
				}
			case *ast.FuncLit:
				// A closure's body taints its own results, not the
				// expression that merely mentions it.
				return false
			}
			return true
		})
		return out
	}

	assignTaint := func(lhs []ast.Expr, rhs []ast.Expr) bool {
		changed := false
		for i, l := range lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.Types().ObjectOf(id)
			if obj == nil {
				continue
			}
			var t taintFact
			if len(lhs) == len(rhs) {
				t = exprTaint(rhs[i])
			} else if len(rhs) == 1 {
				// Multi-value unpacking: every LHS shares the call's taint.
				t = exprTaint(rhs[0])
			}
			merged := mergeTaint(tainted[obj], t)
			if merged != tainted[obj] {
				tainted[obj] = merged
				changed = true
			}
		}
		return changed
	}

	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if assignTaint(st.Lhs, st.Rhs) {
					changed = true
				}
			case *ast.ValueSpec:
				if len(st.Values) > 0 {
					lhs := make([]ast.Expr, len(st.Names))
					for i, nm := range st.Names {
						lhs[i] = nm
					}
					if assignTaint(lhs, st.Values) {
						changed = true
					}
				}
			case *ast.FuncLit:
				return false
			}
			return true
		})
	}

	var namedResults []types.Object
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, nm := range field.Names {
				if obj := pass.Types().ObjectOf(nm); obj != nil {
					namedResults = append(namedResults, obj)
				}
			}
		}
	}

	var out taintFact
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 0 {
			for _, obj := range namedResults {
				if f, ok := tainted[obj]; ok {
					out = mergeTaint(out, f)
				}
			}
			return true
		}
		for _, r := range ret.Results {
			out = mergeTaint(out, exprTaint(r))
		}
		return true
	})
	return out
}

// mergeTaint unions two taints, keeping the first Via seen.
func mergeTaint(a, b taintFact) taintFact {
	out := taintFact{Wall: a.Wall || b.Wall, Rand: a.Rand || b.Rand, Via: a.Via}
	if out.Via == "" {
		out.Via = b.Via
	}
	return out
}
