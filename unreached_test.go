package quasaq

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowlist holds the names TestUnreachedNames tolerates, one per
// line: the name, its reason class, then the reason it stays.
const unreachedAllowlist = "testdata/unreached.txt"

// reasonClasses is the closed set of reasons a name may stay unreached:
//   - key: a field only ever written, read as part of a map key;
//   - marshalled: a field only ever written, read by reflection when encoded;
//   - printed: a field only ever written, read by reflection when printed
//     with %v;
//   - facade: a name that non-test code reaches only through a root alias,
//     used by an example, a command or the README (DESIGN.md §3);
//   - oracle: a name only a test's invariant check reads, where no other
//     view of that state exists.
var reasonClasses = map[string]bool{"key": true, "marshalled": true, "printed": true, "facade": true, "oracle": true}

// TestUnreachedNames type-checks the non-test files of every package in the
// module and fails on any name declared under internal/ that no non-test
// file reaches and the allowlist does not name. It also fails on an
// allowlist line whose name is now reached, or no longer exists.
//
// The names judged are every package-level object, method and struct field.
// Writing a field does not reach it: an assignment or op= target, a ++ or --
// target, a composite-literal key or element, or a map or slice field
// stored into through an index. A field only ever written holds state
// nothing reads.
// A method also counts as reached when its receiver type implements an
// interface that has it: an interface the module declares or converts to,
// one in the signature of a function the module calls (heap.Interface
// through heap.Init), error and fmt.Stringer. A type argument reaches the
// methods its type parameter's constraint names (Merge through
// runner.Sweep). Matching on a method's name alone would keep every method
// that shares a name with some interface's method.
func TestUnreachedNames(t *testing.T) {
	got, err := unreachedNames(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := readUnreachedAllowlist(unreachedAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s: no non-test file reaches it; delete it, or add a line to %s:\n\t%s  <class>  <why it stays>",
				name, unreachedAllowlist, name)
		}
		delete(allowed, name)
	}
	for name, line := range allowed {
		t.Errorf("%s:%d: %s is reached by non-test code, or no longer exists; delete the line",
			unreachedAllowlist, line, name)
	}
}

// TestUnreachedNamesFlagsWrites scans the fixture module under
// testdata/writeonly, whose one package writes a field each way the scan
// counts as a write. It must flag those four and neither the field that is
// read nor the one whose address is taken.
func TestUnreachedNamesFlagsWrites(t *testing.T) {
	got, err := unreachedNames("testdata/writeonly")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fix.T.Assigned", "fix.T.Counted", "fix.T.Indexed", "fix.T.Keyed"}
	if !slices.Equal(got, want) {
		t.Errorf("unreached names = %q, want %q", got, want)
	}
}

// TestUnreachedAllowlistClasses checks that an allowlist line needs a class
// from reasonClasses and a reason.
func TestUnreachedAllowlistClasses(t *testing.T) {
	for line, wantErr := range map[string]string{
		"fix.T.Keyed  key  the fixture's map key": "",
		"fix.T.Keyed  habit  no such class":       "unknown class",
		"fix.T.Keyed  key":                        "needs a class and a reason",
		"fix.T.Keyed  the reason, with no class":  "unknown class",
	} {
		file := filepath.Join(t.TempDir(), "unreached.txt")
		if err := os.WriteFile(file, []byte(line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readUnreachedAllowlist(file)
		if wantErr == "" && err != nil || wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)) {
			t.Errorf("%q: error %v, want one containing %q", line, err, wantErr)
		}
	}
}

// readUnreachedAllowlist maps each allowlisted name to its line number. A
// line without a reason, or with a class outside reasonClasses, is an error.
func readUnreachedAllowlist(file string) (map[string]int, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		name := fields[0]
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: %s needs a class and a reason", file, n, name)
		}
		if !reasonClasses[fields[1]] {
			return nil, fmt.Errorf("%s:%d: %s has unknown class %q", file, n, name, fields[1])
		}
		if _, dup := allowed[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", file, n, name)
		}
		allowed[name] = n
	}
	return allowed, sc.Err()
}

// modulePath is the import path of the module rooted at the repository root.
const modulePath = "quasaq"

// moduleLoader type-checks the module's packages from their non-test source
// and imports everything else from compiler export data.
type moduleLoader struct {
	fset  *token.FileSet
	root  string
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	infos map[string]*types.Info
}

func (l *moduleLoader) Import(p string) (*types.Package, error) {
	if p != modulePath && !strings.HasPrefix(p, modulePath+"/") {
		return l.std.Import(p)
	}
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(p, modulePath), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(p, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[p], l.files[p], l.infos[p] = pkg, files, info
	return pkg, nil
}

// unreachedNames returns, sorted, the names declared under root/internal
// that no non-test file of the module reaches.
func unreachedNames(root string) ([]string, error) {
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset: fset, root: root, std: importer.ForCompiler(fset, "gc", nil),
		pkgs: map[string]*types.Package{}, files: map[string][]*ast.File{}, infos: map[string]*types.Info{},
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		if _, err := build.ImportDir(p, 0); err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		_, err = l.Import(path.Join(modulePath, filepath.ToSlash(rel)))
		return err
	})
	if err != nil {
		return nil, err
	}

	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	if fmtPkg, err := l.std.Import("fmt"); err == nil {
		addIface(fmtPkg.Scope().Lookup("Stringer").Type())
	} else {
		return nil, err
	}
	for p, info := range l.infos {
		// A method's receiver names its own type, and a write stores into a
		// field: neither is a use of it.
		receivers := map[*ast.Ident]bool{}
		for _, f := range l.files[p] {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
		writes := fieldWrites(l.files[p], info)
		for id, obj := range info.Uses {
			if !receivers[id] && !writes[id] {
				used[origin(obj)] = true
			}
			if fn, ok := obj.(*types.Func); ok {
				sig := fn.Type().(*types.Signature)
				for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tuple.Len(); i++ {
						addIface(tuple.At(i).Type())
					}
				}
			}
		}
		for _, tv := range info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for id, inst := range info.Instances {
			tparams := genericParams(origin(info.Uses[id]))
			for i := 0; tparams != nil && i < tparams.Len(); i++ {
				c := tparams.At(i).Constraint().Underlying().(*types.Interface)
				for j := 0; j < c.NumMethods(); j++ {
					m, _, _ := types.LookupFieldOrMethod(inst.TypeArgs.At(i), true, c.Method(j).Pkg(), c.Method(j).Name())
					if m != nil {
						used[origin(m)] = true
					}
				}
			}
		}
	}
	implemented := func(t types.Type, m *types.Func) bool {
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
				continue
			}
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
		return false
	}

	var out []string
	fieldSeen := map[*types.Var]bool{} // type D T shares T's fields
	for p, pkg := range l.pkgs {
		if !strings.HasPrefix(p, modulePath+"/internal/") {
			continue
		}
		short := strings.TrimPrefix(p, modulePath+"/internal/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "_" || name == "init" {
				continue
			}
			if !used[obj] {
				out = append(out, short+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !used[m] && !implemented(named, m) {
					out = append(out, short+"."+name+"."+m.Name())
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					f := u.Field(i)
					if !fieldSeen[f] && !f.Embedded() && f.Name() != "_" && !used[f] {
						out = append(out, short+"."+name+"."+f.Name())
					}
					fieldSeen[f] = true
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); !used[m] {
						out = append(out, short+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// fieldWrites returns the identifiers in files that name a field being
// stored into: an assignment target (op= included), a ++ or -- target, a
// map or slice field stored into through an index (x.F[k] = v), and a
// composite-literal key. Taking &x.F is not among them: whoever holds the
// pointer may read through it.
func fieldWrites(files []*ast.File, info *types.Info) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	write := func(id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			writes[id] = true
		}
	}
	target := func(e ast.Expr) {
		for {
			ix, ok := ast.Unparen(e).(*ast.IndexExpr)
			if !ok {
				break
			}
			e = ix.X
		}
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			write(sel.Sel)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					write(id)
				}
			}
			return true
		})
	}
	return writes
}

// origin maps a use of an instantiated generic method or field back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// genericParams returns the type parameters of the generic function or type
// obj names, or nil.
func genericParams(obj types.Object) *types.TypeParamList {
	switch t := obj.Type().(type) {
	case *types.Signature:
		return t.TypeParams()
	case *types.Named:
		return t.TypeParams()
	}
	return nil
}
