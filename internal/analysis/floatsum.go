package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatSum flags floating-point accumulation inside map iteration.
// Float addition is not associative: summing in map order makes the
// last few bits of report and experiment output vary run to run even
// when every input is identical. Accumulate over order.SortedKeys (or
// justify with //tmplint:ordered) instead.
var FloatSum = &Analyzer{
	Name: "floatsum",
	Doc:  "flags float accumulation over map iteration (order-dependent rounding)",
	Run:  runFloatSum,
}

func runFloatSum(pass *Pass) {
	if !strings.Contains(pass.Path(), "internal/") {
		return
	}
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || mapTypeOf(pass, rs.X) == nil {
				return true
			}
			checkFloatAccum(pass, rs)
			return true
		})
	}
}

// checkFloatAccum reports float accumulators mutated in the range body
// but declared outside it.
func checkFloatAccum(pass *Pass, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		accum := false
		switch st.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			accum = true
		case token.ASSIGN:
			// x = x + e / x = e + x (and -, *, /).
			if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
				if bin, ok := st.Rhs[0].(*ast.BinaryExpr); ok {
					switch bin.Op {
					case token.ADD, token.SUB, token.MUL, token.QUO:
						accum = sameExpr(st.Lhs[0], bin.X) || sameExpr(st.Lhs[0], bin.Y)
					default:
					}
				}
			}
		default:
		}
		if !accum {
			return true
		}
		for _, lhs := range st.Lhs {
			if !isFloat(pass.TypeOf(lhs)) {
				continue
			}
			if localTo(pass, lhs, rs.Body) {
				continue
			}
			// A directive on the statement's own line is handled by the
			// engine's report filter; only the enclosing range line's
			// needs analyzer cooperation. Asking only once there is a
			// finding leaves a directive over a range without one
			// unused, so the directive audit reports it.
			if pass.Suppressed(rs.Pos()) {
				continue
			}
			pass.Reportf(st.Pos(), "float accumulation into %s over map iteration: rounding depends on visit order; accumulate over order.SortedKeys", types.ExprString(lhs))
		}
		return true
	})
}

// isFloat reports whether t is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// localTo reports whether expr is an identifier declared inside body
// (a per-iteration local whose rounding never escapes).
func localTo(pass *Pass, expr ast.Expr, body *ast.BlockStmt) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Types().ObjectOf(id)
	return obj != nil && body.Pos() <= obj.Pos() && obj.Pos() < body.End()
}

// sameExpr reports whether two expressions are the same identifier or
// selector chain, textually.
func sameExpr(a, b ast.Expr) bool {
	return types.ExprString(a) == types.ExprString(b)
}
