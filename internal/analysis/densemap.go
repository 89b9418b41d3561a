package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DenseMap enforces the dense-column contract: per-page state outside
// internal/core must be a column over core/pageidx interned ids, not a
// map keyed by page identity. The map form rebuilds hashes every
// epoch, invites order-sensitive iteration (maprange's whole beat),
// and is the allocation pattern PR 4 removed from the hot path. Any
// map type with a core.PageKey key and a non-empty value type is
// flagged wherever the type is written — struct fields, locals,
// make calls, signatures. Maps with struct{} values (page sets, e.g.
// policy.Selection) are exempt: sets are outputs, not per-page state
// columns.
var DenseMap = &Analyzer{
	Name: "densemap",
	Doc:  "forbids map[core.PageKey]… per-page state outside internal/core; use dense pageidx columns",
	Run:  runDenseMap,
}

func runDenseMap(pass *Pass) {
	path := pass.Path()
	if !strings.Contains(path, "internal/") {
		return
	}
	// internal/core (and core/pageidx beneath it) is where the dense
	// representation and its map-boundary adapters (RanksFromMap) live.
	if inPkg(path, "internal/core") {
		return
	}
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			mt, ok := n.(*ast.MapType)
			if !ok {
				return true
			}
			t := pass.TypeOf(mt)
			m, ok := t.(*types.Map)
			if !ok {
				return true
			}
			if !isPageKey(m.Key()) || isEmptyStruct(m.Elem()) {
				return true
			}
			pass.Reportf(mt.Pos(), "per-page state as map[core.PageKey]%s: use a dense column over core/pageidx interned ids", m.Elem())
			return true
		})
	}
}

// isPageKey reports whether t is core.PageKey.
func isPageKey(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "PageKey" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/core")
}

// isEmptyStruct reports whether t's underlying type is struct{}.
func isEmptyStruct(t types.Type) bool {
	s, ok := t.Underlying().(*types.Struct)
	return ok && s.NumFields() == 0
}
