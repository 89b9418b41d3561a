package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SentErr enforces the typed-sentinel error contract in the fault,
// memory, and policy domains: failures are classified with errors.Is
// against the package-level sentinels (mem.ErrTierFull,
// mem.ErrOutOfMemory, …), never by matching err.Error() text —
// wrapping or rewording a message must not change control flow — and
// never by direct == comparison, which wrapping breaks. Inside the fault and mem domains,
// errors.New belongs only at package level: an errors.New inside a
// function body mints an error no caller can classify.
var SentErr = &Analyzer{
	Name: "senterr",
	Doc:  "requires errors.Is against typed sentinels in fault/mem/policy; forbids err.Error() matching and in-function errors.New",
	Run:  runSentErr,
}

// sentErrScope lists the import-path fragments the check applies to.
var sentErrScope = []string{"internal/fault", "internal/mem", "internal/policy"}

// sentErrNewScope lists where in-function errors.New is forbidden (the
// error-producing domains whose callers classify with errors.Is).
var sentErrNewScope = []string{"internal/fault", "internal/mem"}

func runSentErr(pass *Pass) {
	inScope := func(scope []string) bool {
		for _, frag := range scope {
			if strings.Contains(pass.Path(), frag) {
				return true
			}
		}
		return false
	}
	if !inScope(sentErrScope) {
		return
	}
	banNew := inScope(sentErrNewScope)
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				checkErrCompare(pass, e)
			case *ast.CallExpr:
				checkErrorTextMatch(pass, e)
			case *ast.FuncDecl:
				if banNew && e.Body != nil {
					checkAdHocNew(pass, e.Body)
				}
			}
			return true
		})
	}
}

// checkErrCompare flags ==/!= between error values (nil comparisons
// excluded) and any comparison of err.Error() text.
func checkErrCompare(pass *Pass, e *ast.BinaryExpr) {
	if e.Op != token.EQL && e.Op != token.NEQ {
		return
	}
	if isErrorTextCall(pass, e.X) || isErrorTextCall(pass, e.Y) {
		pass.Reportf(e.Pos(), "comparing err.Error() text: classify with errors.Is against a typed sentinel instead")
		return
	}
	if isNilExpr(pass, e.X) || isNilExpr(pass, e.Y) {
		return
	}
	if isErrorType(pass.TypeOf(e.X)) && isErrorType(pass.TypeOf(e.Y)) {
		pass.Reportf(e.Pos(), "direct %s comparison of errors breaks under wrapping: use errors.Is", e.Op)
	}
}

// checkErrorTextMatch flags strings.Contains/HasPrefix/HasSuffix/
// EqualFold/Index over err.Error() output.
func checkErrorTextMatch(pass *Pass, call *ast.CallExpr) {
	fn := calleeOf(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "strings" {
		return
	}
	switch fn.Name() {
	case "Contains", "HasPrefix", "HasSuffix", "EqualFold", "Index":
	default:
		return
	}
	for _, arg := range call.Args {
		if isErrorTextCall(pass, arg) {
			pass.Reportf(call.Pos(), "matching err.Error() text with strings.%s: classify with errors.Is against a typed sentinel instead", fn.Name())
			return
		}
	}
}

// checkAdHocNew flags errors.New inside a function body.
func checkAdHocNew(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "errors" || fn.Name() != "New" {
			return true
		}
		pass.Reportf(call.Pos(), "errors.New inside a function body mints an unclassifiable error: declare a package-level sentinel (var ErrX = errors.New(...)) and return it")
		return true
	})
}

// isErrorTextCall reports whether e is a call to the Error() method of
// an error value.
func isErrorTextCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	return isErrorType(pass.TypeOf(sel.X))
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) ||
		types.Implements(types.NewPointer(t), errorIface)
}

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isNilExpr reports whether e is the untyped nil.
func isNilExpr(pass *Pass, e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		_, isNil := pass.Types().ObjectOf(id).(*types.Nil)
		return isNil
	}
	return false
}
