package pacon_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// exportAllowlist names each package-level object of internal/ that no
// non-test code uses but that stays, with the tests that need it.
var exportAllowlist = map[string]string{
	// One client's own round trips, which a bus observer cannot tell
	// from the commit processes' beside it.
	"rpc.Caller.Calls": "core: TestMissIsOneCacheRoundTrip, TestMutationIsOneCacheRoundTrip, " +
		"TestOwnerLoadErrorIsAnAnswer, TestEvictRoundTripsPerOwner, TestStatMultiBatchedCutsCacheRPCs, " +
		"TestStatAndStatMultiAgree; dfs: TestSingletonIsAOneOpBatch, TestApplyBatchGroupsAcrossMDSes, " +
		"TestDirGroupsMatchInOrderApply, TestDirGroupsOverlapOnTheMDS, TestChildBeforeParentStaysInItsRequest",
}

// TestEveryExportHasACaller keeps internal/ free of code nothing calls.
// It type-checks the non-test packages of this module and of benchmark/
// (its own module, whose imports resolve here) and fails on any
// package-level function, method, type, constant or variable of
// internal/ that no non-test code uses. Exempt are methods that satisfy
// an interface the checked code names or converts to, the methods the
// standard library calls by convention (Error, String, MarshalText,
// UnmarshalText, Unwrap), and the exports of a package that no non-test
// package imports: its tests are its callers.
func TestEveryExportHasACaller(t *testing.T) {
	start := time.Now()
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		path := "pacon"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkgs[path] = append(pkgs[path], f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dead, err := uncalled(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range checkAllowlist(dead, exportAllowlist) {
		t.Error(msg)
	}
	t.Logf("%d packages checked in %v", len(pkgs), time.Since(start).Round(time.Millisecond))
}

// checkAllowlist returns a message for each dead name the allowlist does
// not hold and for each allowlist entry that names nothing dead.
func checkAllowlist(dead []string, allow map[string]string) []string {
	var msgs []string
	found := map[string]bool{}
	for _, name := range dead {
		found[name] = true
		if _, ok := allow[name]; !ok {
			msgs = append(msgs, name+": no non-test code uses it")
		}
	}
	for name := range allow {
		if !found[name] {
			msgs = append(msgs, name+": on the allowlist, but used or gone")
		}
	}
	sort.Strings(msgs)
	return msgs
}

// uncalled type-checks pkgs (import path to non-test files) and returns
// the package-level objects of the internal/ packages that no checked
// code uses, as pkg.Name or pkg.Type.Method.
func uncalled(fset *token.FileSet, pkgs map[string][]*ast.File) ([]string, error) {
	std := importer.Default()
	checked := map[string]*types.Package{}
	infos := map[string]*types.Info{}
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if _, ok := pkgs[path]; ok {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			if p == nil {
				return nil, fmt.Errorf("import cycle through %s", path)
			}
			return p, nil
		}
		checked[path] = nil
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, pkgs[path], info)
		if err != nil {
			return nil, err
		}
		checked[path], infos[path] = p, info
		return p, nil
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := check(path); err != nil {
			return nil, err
		}
	}

	// A declaration's own span, and every receiver list, is not a use:
	// a recursive call or a method naming its type keeps nothing alive.
	own := map[types.Object]ast.Node{}
	recv := map[*ast.Ident]bool{}
	for _, path := range paths {
		defs := infos[path].Defs
		for _, f := range pkgs[path] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					own[defs[d.Name]] = d
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recv[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							own[defs[s.Name]] = s
						case *ast.ValueSpec:
							for _, n := range s.Names {
								own[defs[n]] = s
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	imported := map[string]bool{}
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, path := range paths {
		for _, p := range checked[path].Imports() {
			if p.Path() != path {
				imported[p.Path()] = true
			}
		}
		info := infos[path]
		for id, obj := range info.Uses {
			obj = origin(obj)
			if decl := own[obj]; !recv[id] && (decl == nil || id.Pos() < decl.Pos() || id.Pos() >= decl.End()) {
				used[obj] = true
			}
		}
		for _, tv := range info.Types {
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					addIface(sig.Params().At(i).Type())
				}
			}
		}
	}

	// Methods an interface reaches: for every named type of the checked
	// packages, and its pointer, that implements one.
	for _, path := range paths {
		scope := checked[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			for _, it := range ifaces {
				var impl types.Type
				if types.Implements(named, it) {
					impl = named
				} else if types.Implements(types.NewPointer(named), it) {
					impl = types.NewPointer(named)
				} else {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(impl, false, m.Pkg(), m.Name())
					if obj != nil {
						used[origin(obj)] = true
					}
				}
			}
		}
	}

	var dead []string
	for _, path := range paths {
		if !strings.HasPrefix(path, "pacon/internal/") {
			continue
		}
		short := path[strings.LastIndex(path, "/")+1:]
		scope := checked[path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !imported[path] {
				continue
			}
			if !used[obj] && name != "_" && name != "init" {
				dead = append(dead, short+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if used[m] || conventional(m) || (m.Exported() && !imported[path]) {
					continue
				}
				dead = append(dead, short+"."+name+"."+m.Name())
			}
		}
	}
	sort.Strings(dead)
	return dead, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// conventional reports whether m is a method the standard library calls
// by name through an interface the checked code need not name.
func conventional(m *types.Func) bool {
	bytes := types.NewSlice(types.Typ[types.Byte])
	err := types.Universe.Lookup("error").Type()
	str := types.Typ[types.String]
	var in, out []types.Type
	switch m.Name() {
	case "Error", "String":
		out = []types.Type{str}
	case "MarshalText":
		out = []types.Type{bytes, err}
	case "UnmarshalText":
		in, out = []types.Type{bytes}, []types.Type{err}
	case "Unwrap":
		out = []types.Type{err}
	default:
		return false
	}
	tuple := func(ts []types.Type) *types.Tuple {
		vars := make([]*types.Var, len(ts))
		for i, t := range ts {
			vars[i] = types.NewParam(token.NoPos, nil, "", t)
		}
		return types.NewTuple(vars...)
	}
	return types.Identical(m.Type(), types.NewSignatureType(nil, nil, nil, tuple(in), tuple(out), false))
}

// TestExportGateRules runs the gate's checker on an in-memory fixture: an
// internal package and a command that calls part of it.
func TestExportGateRules(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	for path, src := range map[string]string{
		"pacon/internal/fix": `package fix

type T struct{}

func New() T { return T{} }
func Dead() {}
func helper() {}
func (T) Used() { helper2() }
func (T) Dead() {}
func (T) Hook() {}
func (T) Unwrap() error { return nil }
func helper2() {}
`,
		"pacon/cmd/fix": `package main

import "pacon/internal/fix"

func main() {
	var x any = fix.New()
	x.(fix.T).Used()
	if h, ok := x.(interface{ Hook() }); ok {
		h.Hook()
	}
}
`,
	} {
		f, err := parser.ParseFile(fset, path+".go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[path] = []*ast.File{f}
	}
	dead, err := uncalled(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	// Flagged: a dead export, a dead method and a dead unexported helper.
	// Exempt: Hook, which satisfies a literal interface, and Unwrap.
	if want := []string{"fix.Dead", "fix.T.Dead", "fix.helper"}; fmt.Sprint(dead) != fmt.Sprint(want) {
		t.Errorf("dead = %v, want %v", dead, want)
	}
	msgs := checkAllowlist(dead, map[string]string{"fix.Dead": "a test", "fix.T.Dead": "a test", "fix.Gone": "a test"})
	if want := []string{"fix.Gone: on the allowlist, but used or gone", "fix.helper: no non-test code uses it"}; fmt.Sprint(msgs) != fmt.Sprint(want) {
		t.Errorf("allowlist messages = %q, want %q", msgs, want)
	}
}
