package sapsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledButKept are exported internal functions whose name appears in no
// non-test file outside their own declaration, each kept for a stated reason.
var uncalledButKept = map[string]string{
	"analysis.Identity":   "the no-op transform the heatmap and top-k tests pass where artifacts pass FreePercent",
	"dataset.ReadFlavors": "the reader half of WriteFlavors; the cmd/sapsim test reads the exported flavor table back with it",
	"events.ReadCSV":      "the reader half of WriteCSV; the events and core tests round-trip the released event log with it",
	"nova.NewServerGroup": "the only constructor of the groups ServerGroupFilter checks, and that filter runs in every schedule",
	"vmmodel.ClassCounts": "the catalog-side oracle of Tables 1 and 2 in the vmmodel tests",
}

// TestInternalFuncsHaveCallers keeps dead code out of internal/: every
// exported package-level function declared there is named by some non-test
// file of the tree (bench/ included) outside its own declaration, or is on
// uncalledButKept. The match is by name, so it errs towards passing.
func TestInternalFuncsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string][]string{} // name → "pkg.Name" of each internal func
	uses := map[string]int{}          // name → idents outside its own declaration
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
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
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			self := ""
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				self = fd.Name.Name
				if strings.HasPrefix(dir, "internal/") && fd.Name.IsExported() {
					declared[self] = append(declared[self], filepath.Base(dir)+"."+self)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name != self {
					uses[id.Name]++
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	for name, qualified := range declared {
		if uses[name] == 0 {
			uncalled = append(uncalled, qualified...)
		}
	}
	sort.Strings(uncalled)
	for _, q := range uncalled {
		if _, ok := uncalledButKept[q]; !ok {
			t.Errorf("%s has no caller outside tests: delete it, or keep it in uncalledButKept with a reason", q)
		}
	}
	for q := range uncalledButKept {
		if i := sort.SearchStrings(uncalled, q); i == len(uncalled) || uncalled[i] != q {
			t.Errorf("uncalledButKept lists %s, which is gone or now has a caller: drop the entry", q)
		}
	}
}
