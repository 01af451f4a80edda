package sapsim

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modelPackagesFile lists the directories whose code computes a cell's
// output, one a line. The "No fused multiply-add in model code" CI step
// builds the same list, so the two checks cannot cover different packages.
const modelPackagesFile = "scripts/model_packages.txt"

// walkModelFiles parses every non-test Go file of the model packages, with
// comments, and calls fn on each in directory and file-name order.
func walkModelFiles(t *testing.T, fn func(fset *token.FileSet, dir string, f *ast.File)) {
	t.Helper()
	list, err := os.ReadFile(modelPackagesFile)
	if err != nil {
		t.Fatal(err)
	}
	dirs := strings.Fields(string(list))
	if len(dirs) == 0 {
		t.Fatalf("%s lists no package", modelPackagesFile)
	}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		dir = filepath.Clean(dir)
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(paths)
		n := 0
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			fn(fset, dir, f)
			n++
		}
		if n == 0 {
			t.Fatalf("model package %s has no Go files", dir)
		}
	}
}

// exactMath are the functions of package math whose result is the correctly
// rounded (or exact) value, so every port computes the same bits, whatever
// assembly it runs them on.
var exactMath = map[string]bool{
	"Sqrt": true, "Floor": true, "Ceil": true, "Trunc": true, "Round": true, "Abs": true,
	"Max": true, "Min": true, "Mod": true, "Frexp": true, "Ldexp": true,
	"IsNaN": true, "IsInf": true, "Inf": true, "NaN": true,
	"Float64bits": true, "Float64frombits": true, "Float32bits": true, "Float32frombits": true,
}

// TestModelMathIsExact fails when model code names a function of package
// math outside exactMath. The others (Exp, Log, Sin, Pow, …) are accurate
// only to an ulp or so, and some ports run assembly for them that rounds
// differently from the pure-Go version, so the same seed would give other
// bits on another machine. The model's own uses go through the ports in
// internal/workload/detmath.go.
func TestModelMathIsExact(t *testing.T) {
	pkg, err := importer.ForCompiler(token.NewFileSet(), "source", nil).Import("math")
	if err != nil {
		t.Fatalf("type-checking package math: %v", err)
	}
	calls := 0
	walkModelFiles(t, func(fset *token.FileSet, _ string, f *ast.File) {
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math" {
				local = "math"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return
		}
		if local == "." {
			t.Errorf("%s: dot-imports math, which hides its calls from this check", fset.Position(f.Package))
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != local {
				return true
			}
			if _, isFunc := pkg.Scope().Lookup(sel.Sel.Name).(*types.Func); !isFunc {
				return true
			}
			calls++
			if !exactMath[sel.Sel.Name] {
				t.Errorf("%s: math.%s is not exact on every port; use an exact function or a port in internal/workload/detmath.go",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	})
	if calls == 0 {
		t.Fatal("found no function of package math in model code: the walk or the import of math is broken")
	}
}
