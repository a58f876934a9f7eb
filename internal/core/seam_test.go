package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPolicyChosenOnce holds the two seams of Figure 1 apart: prep.go picks
// each policy's engine (partitioning) and stores (storage) once, so no
// other non-test file of the package reads Config.Quadrant, FullCopy or
// ColumnIndex. core.go defines and validates them, auto.go resolves the
// auto quadrant, and checkpoint.go hashes them into the config digest.
func TestPolicyChosenOnce(t *testing.T) {
	allowed := map[string]bool{"core.go": true, "prep.go": true, "auto.go": true, "checkpoint.go": true}
	policy := map[string]bool{"Quadrant": true, "FullCopy": true, "ColumnIndex": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || allowed[name] {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && policy[sel.Sel.Name] {
				t.Errorf("%s: policy field .%s read outside prep.go; pick the engine or store there", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}
