package tieredmem_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllocsPinsTakeOneRun holds every zero-allocation pin to one
// idiom: testalloc.Count(f), with f making all n calls and the result
// read as a total. Count is testing.AllocsPerRun(1, f) on a heap with
// no free pages left for the background scavenger to release.
// AllocsPerRun divides its malloc total by the run count in integers,
// so AllocsPerRun(100, f) reads 0 for an f that allocates on every
// other call; a test that calls it directly also skips the settling.
func TestAllocsPinsTakeOneRun(t *testing.T) {
	countFile := filepath.Join("internal", "testalloc", "testalloc.go")
	fset := token.NewFileSet()
	pins := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// The go tool skips these directories too.
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "testalloc" && sel.Sel.Name == "Count" {
				pins++
			}
			if sel.Sel.Name != "AllocsPerRun" || len(call.Args) == 0 {
				return true
			}
			if path != countFile {
				t.Errorf("%s: measure with testalloc.Count, not AllocsPerRun", fset.Position(call.Pos()))
			} else if lit, ok := call.Args[0].(*ast.BasicLit); !ok || lit.Value != "1" {
				t.Errorf("%s: AllocsPerRun's run count must be 1, with the calls inside f, so the total shows every allocation", fset.Position(call.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pins == 0 {
		t.Error("found no testalloc.Count call; the walk is not reading the test files")
	}
}
