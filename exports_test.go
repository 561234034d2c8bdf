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
	"sync"
	"testing"
	"time"
)

// exportAllowlist names each package-level object of internal/ that no
// non-test code uses but that stays, with the tests that need it.
var exportAllowlist = map[string]string{}

// fieldAllowlist names each struct field of internal/ that no non-test
// code reads but that stays, with its reason.
var fieldAllowlist = map[string]string{
	// Server.GetMulti's reply. Its one non-test caller, the benchmark's
	// memcache.get_multi_ns_per_key row, times the lookup and reads only
	// the slice's length; the benchmark's files stay as they are until
	// it moves onto pacon's public API.
	"memcache.GetMultiResult.Hit":  "memcache: TestServerGetMultiDuringFlush",
	"memcache.GetMultiResult.Item": "memcache: TestServerGetMultiDuringFlush",
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
	p := loadModule(t)
	for _, msg := range checkAllowlist(uncalled(p), exportAllowlist, "no non-test code uses it") {
		t.Error(msg)
	}
}

// TestEveryFieldHasAReader keeps internal/ free of state nothing reads:
// it fails on any field of an internal/ struct that no non-test code
// reads. An assignment to the field, ++ or --, a keyed composite literal
// and a sync/atomic Add, Store, Swap or CompareAndSwap called as a
// statement write it; every other use reads it. Exempt are embedded
// fields, fields with a struct tag (reflection encodes them), and the
// structs of a package that no non-test package imports.
func TestEveryFieldHasAReader(t *testing.T) {
	p := loadModule(t)
	for _, msg := range checkAllowlist(unread(p), fieldAllowlist, "no non-test code reads it") {
		t.Error(msg)
	}
}

var module struct {
	once sync.Once
	p    *program
	err  error
}

// loadModule parses and type-checks the non-test packages of this module
// and of benchmark/ once for both gates.
func loadModule(t *testing.T) *program {
	module.once.Do(func() {
		start := time.Now()
		module.p, module.err = parseModule()
		if module.err == nil {
			t.Logf("%d packages checked in %v", len(module.p.paths), time.Since(start).Round(time.Millisecond))
		}
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.p
}

func parseModule() (*program, error) {
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
		return nil, err
	}
	return typeCheck(fset, pkgs)
}

// checkAllowlist returns a message for each dead name the allowlist does
// not hold, saying why it is dead, and for each allowlist entry that
// names nothing dead.
func checkAllowlist(dead []string, allow map[string]string, why string) []string {
	var msgs []string
	found := map[string]bool{}
	for _, name := range dead {
		found[name] = true
		if _, ok := allow[name]; !ok {
			msgs = append(msgs, name+": "+why)
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

// program is a set of type-checked packages: the gates' input.
type program struct {
	paths   []string // import paths, sorted
	files   map[string][]*ast.File
	checked map[string]*types.Package
	infos   map[string]*types.Info
	// imported holds the packages another checked package imports.
	imported map[string]bool
}

// typeCheck type-checks pkgs (import path to non-test files).
func typeCheck(fset *token.FileSet, pkgs map[string][]*ast.File) (*program, error) {
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
	imported := map[string]bool{}
	for _, path := range paths {
		p, err := check(path)
		if err != nil {
			return nil, err
		}
		for _, q := range p.Imports() {
			imported[q.Path()] = true
		}
	}
	return &program{paths: paths, files: pkgs, checked: checked, infos: infos, imported: imported}, nil
}

// uncalled returns the package-level objects of the internal/ packages
// that no checked code uses, as pkg.Name or pkg.Type.Method.
func uncalled(p *program) []string {
	paths, pkgs, checked, infos, imported := p.paths, p.files, p.checked, p.infos, p.imported

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
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, path := range paths {
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
	return dead
}

// unread returns the fields of the internal/ packages' structs that no
// checked code reads, as pkg.Type.field (pkg.field outside a named type),
// under the rules TestEveryFieldHasAReader states. A field of a generic
// struct is one field, whatever its instances.
func unread(p *program) []string {
	atomicWrite := map[string]bool{"Add": true, "Store": true, "Swap": true, "CompareAndSwap": true}
	read := map[*types.Var]bool{}
	for _, path := range p.paths {
		info := p.infos[path]
		writes := map[*ast.Ident]bool{}
		field := func(e ast.Expr) *ast.Ident {
			if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				return s.Sel
			}
			return nil
		}
		for _, f := range p.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						writes[field(lhs)] = true
					}
				case *ast.IncDecStmt:
					writes[field(n.X)] = true
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								writes[id] = true
							}
						}
					}
				case *ast.ExprStmt:
					call, ok := ast.Unparen(n.X).(*ast.CallExpr)
					if !ok {
						break
					}
					m, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					if !ok || !atomicWrite[m.Sel.Name] {
						break
					}
					if id := field(m.X); id != nil {
						if named, ok := info.Types[m.X].Type.(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic" {
							writes[id] = true
						}
					}
				}
				return true
			})
		}
		for id, obj := range info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
				read[v.Origin()] = true
			}
		}
	}

	var dead []string
	for _, path := range p.paths {
		if !strings.HasPrefix(path, "pacon/internal/") || !p.imported[path] {
			continue
		}
		short := path[strings.LastIndex(path, "/")+1:]
		defs := p.infos[path].Defs
		var walk func(n ast.Node, owner string)
		walk = func(n ast.Node, owner string) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					walk(n.Type, short+"."+n.Name.Name)
					return false
				case *ast.StructType:
					for _, fl := range n.Fields.List {
						if fl.Tag != nil {
							continue
						}
						for _, name := range fl.Names {
							if v, ok := defs[name].(*types.Var); ok && !read[v] && name.Name != "_" {
								dead = append(dead, owner+"."+name.Name)
							}
						}
					}
				}
				return true
			})
		}
		for _, f := range p.files[path] {
			walk(f, short)
		}
	}
	sort.Strings(dead)
	return dead
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
	p := checkFixture(t, map[string]string{
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
	})
	dead := uncalled(p)
	// Flagged: a dead export, a dead method and a dead unexported helper.
	// Exempt: Hook, which satisfies a literal interface, and Unwrap.
	if want := []string{"fix.Dead", "fix.T.Dead", "fix.helper"}; fmt.Sprint(dead) != fmt.Sprint(want) {
		t.Errorf("dead = %v, want %v", dead, want)
	}
	msgs := checkAllowlist(dead, map[string]string{"fix.Dead": "a test", "fix.T.Dead": "a test", "fix.Gone": "a test"}, "no non-test code uses it")
	if want := []string{"fix.Gone: on the allowlist, but used or gone", "fix.helper: no non-test code uses it"}; fmt.Sprint(msgs) != fmt.Sprint(want) {
		t.Errorf("allowlist messages = %q, want %q", msgs, want)
	}
}

// TestFieldGateRules runs the field rule on an in-memory fixture: an
// internal package whose structs cover each way to write and read a
// field, a command that reads one of them, and a package nothing
// imports.
func TestFieldGateRules(t *testing.T) {
	p := checkFixture(t, map[string]string{
		"pacon/internal/fix": `package fix

import "sync/atomic"

type inner struct{ n int }

type S struct {
	inner
	dead    int
	loaded  atomic.Int64
	counted atomic.Int64
	seq     atomic.Int64
	tagged  int ` + "`json:\"tagged\"`" + `
	Kept    int
}

type Q[T any] struct {
	items  []T
	unused T
}

func New() *S { return &S{dead: 1, tagged: 2} }

func (s *S) Bump() int64 {
	s.dead++
	s.loaded.Add(1)
	s.counted.Add(1)
	x := s.seq.Add(1)
	return x + s.loaded.Load() + int64(s.n)
}

func (q *Q[T]) Push(v T) int {
	q.items, q.unused = append(q.items, v), v
	return len(q.items)
}
`,
		"pacon/internal/lonely": `package lonely

type L struct{ dead int }

func New() L { return L{dead: 1} }
`,
		"pacon/cmd/fix": `package main

import "pacon/internal/fix"

func main() {
	s := fix.New()
	println(s.Bump(), s.Kept, new(fix.Q[int]).Push(1))
}
`,
	})
	dead := unread(p)
	// Flagged: a field only ever assigned, an atomic only ever added to
	// by a statement, and a generic struct's field only ever assigned.
	// Read: through Load, through Add's result, through promotion from
	// an embedded struct, and a generic field through its instances.
	// Exempt: the tagged field and the package nothing imports.
	if want := []string{"fix.Q.unused", "fix.S.counted", "fix.S.dead"}; fmt.Sprint(dead) != fmt.Sprint(want) {
		t.Errorf("unread = %v, want %v", dead, want)
	}
	msgs := checkAllowlist(dead, map[string]string{"fix.S.counted": "a test", "fix.S.gone": "a test"}, "no non-test code reads it")
	if want := []string{"fix.Q.unused: no non-test code reads it", "fix.S.dead: no non-test code reads it", "fix.S.gone: on the allowlist, but used or gone"}; fmt.Sprint(msgs) != fmt.Sprint(want) {
		t.Errorf("allowlist messages = %q, want %q", msgs, want)
	}
}

// checkFixture parses and type-checks srcs, import path to one file's
// source.
func checkFixture(t *testing.T, srcs map[string]string) *program {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	for path, src := range srcs {
		f, err := parser.ParseFile(fset, path+".go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[path] = []*ast.File{f}
	}
	p, err := typeCheck(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
