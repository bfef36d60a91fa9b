package quasaq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneGoroutinePerWorld holds the concurrency rule of DESIGN.md §14: a
// world is a simulator and everything it drives, and one goroutine owns
// it. So no non-test file under internal/ imports sync or sync/atomic,
// declares a channel or starts a goroutine. internal/runner, which runs one
// hermetic world per worker, is the one exception; each message names the
// file and line that break the rule.
func TestOneGoroutinePerWorld(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if filepath.ToSlash(p) == "internal/runner" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" || path == "sync/atomic" {
				t.Errorf("%s: imports %s; one goroutine owns a world, so nothing in it locks (DESIGN.md §14)",
					fset.Position(imp.Pos()), path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ChanType:
				t.Errorf("%s: declares a channel; one goroutine owns a world (DESIGN.md §14)", fset.Position(n.Pos()))
			case *ast.GoStmt:
				t.Errorf("%s: starts a goroutine; only internal/runner may (DESIGN.md §14)", fset.Position(n.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
