package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// EpochAccount protects the per-epoch observation counters that
// hotness ranks are computed from. Protection is by the struct that
// declares the field: every field of mem.Evidence (written directly,
// through mem.PageDescriptor.Epoch, or through core.PageStat's
// promoted fields), core.PageStat.Evidence, and
// mem.PageDescriptor.Epoch. The all-time ground-truth total is an
// unexported mem.PhysMem column, so the compiler already keeps its
// writes inside mem. Writes are legal only inside the sanctioned
// accumulation paths — the profiler arms (abit scan, trace drain in
// core, devprof flush, the machine's ground-truth charge in cpu) and
// the mem package's own allocation/reset/carry bookkeeping.
// Anywhere else, a counter write is rank corruption: evidence the
// profiler never collected.
var EpochAccount = &Analyzer{
	Name: "epochaccount",
	Doc:  "restricts Evidence/PageStat/PageDescriptor counter writes to sanctioned accumulation paths",
	Run:  runEpochAccount,
}

// epochProtectedFields maps protected struct type names to their
// protected field sets; a nil set protects every field, so a new
// evidence source is guarded the moment it is declared.
var epochProtectedFields = map[string]map[string]bool{
	"Evidence":       nil,
	"PageStat":       {"Evidence": true},
	"PageDescriptor": {"Epoch": true},
}

// epochProtected reports whether field of the struct type named owner
// is a protected counter.
func epochProtected(owner, field string) bool {
	fields, ok := epochProtectedFields[owner]
	return ok && (fields == nil || fields[field])
}

// epochSanctionedPaths are the import-path suffixes allowed to write
// the protected counters.
var epochSanctionedPaths = []string{
	"internal/abit",    // A-bit scan accumulation
	"internal/core",    // trace-sample drain + harvest snapshot
	"internal/cpu",     // ground-truth charge per executed reference
	"internal/devprof", // device-side count flush
	"internal/mem",     // descriptor allocation, epoch reset, carry
}

func runEpochAccount(pass *Pass) {
	for _, suffix := range epochSanctionedPaths {
		if strings.HasSuffix(pass.Path(), suffix) {
			return
		}
	}
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkEpochWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkEpochWrite(pass, st.X)
			case *ast.UnaryExpr:
				// &pd.Epoch.Trace escapes the counter for arbitrary
				// later writes.
				if st.Op.String() == "&" {
					checkEpochWrite(pass, st.X)
				}
			}
			return true
		})
	}
}

// checkEpochWrite reports when expr writes a protected counter field.
func checkEpochWrite(pass *Pass, expr ast.Expr) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.Types().Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	owner := fieldOwner(selection)
	if owner == nil || !epochProtected(owner.Obj().Name(), sel.Sel.Name) {
		return
	}
	pass.Reportf(sel.Pos(), "write to %s.%s outside sanctioned accumulation paths: epoch counters may only be produced by the profiler arms (abit/core/cpu/devprof/mem)", owner.Obj().Name(), sel.Sel.Name)
}

// fieldOwner returns the named struct type that declares the selected
// field, following embedded fields, so a promoted ps.Abit resolves to
// Evidence rather than PageStat.
func fieldOwner(selection *types.Selection) *types.Named {
	t := selection.Recv()
	idx := selection.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := derefType(t).Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		t = st.Field(i).Type()
	}
	named, _ := derefType(t).(*types.Named)
	return named
}

// derefType strips one pointer.
func derefType(t types.Type) types.Type {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}
