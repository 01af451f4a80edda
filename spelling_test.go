package sapsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneSchedulerSpelling keeps scheduler configurations written in one
// place: outside internal/scenario/variants.go (the table) and
// internal/nova (the defaults), no non-test file of the module sets the
// scheduler's weighers or node policies, and the retired policy registry
// and contention-feed knob stay gone.
func TestOneSchedulerSpelling(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		mayConfigure := filepath.ToSlash(path) == "internal/scenario/variants.go" ||
			filepath.ToSlash(filepath.Dir(path)) == "internal/nova"
		configures := func(e ast.Expr) {
			var name string
			switch e := e.(type) {
			case *ast.SelectorExpr:
				name = e.Sel.Name
			case *ast.Ident:
				name = e.Name
			}
			switch name {
			case "Weighers", "GeneralNodePolicy", "HANANodePolicy":
				if !mayConfigure {
					t.Errorf("%s: sets %s outside the table of scheduler configurations", fset.Position(e.Pos()), name)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					configures(lhs)
				}
			case *ast.KeyValueExpr:
				configures(n.Key)
			case *ast.Ident:
				if n.Name == "ContentionFeed" || n.Name == "RegisterPolicy" {
					t.Errorf("%s: %s is retired", fset.Position(n.Pos()), n.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
