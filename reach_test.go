package repro

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllowed exempts exported funcs and methods, by qualified name
// (package.Func or package.Type.Method), that no program calls, each for a
// stated reason: a test reads state through it.
var reachAllowed = map[string]string{
	"serve.Server.Budget":  "TestWALBudgetAfterRecovery and FuzzWALRecover cross-check the budget counters against the recovered job set",
	"serve.Server.DropJob": "the WAL goldens (writeLogDir), TestWALBudgetAfterRecovery and FuzzSnapshotRestore drop jobs in process; /ingest drops arrive as drop frames through Feed",
}

// unreadAllowed exempts unexported struct fields, by qualified name
// (package.Type.field), that programs only store to, each for a stated
// reason: a test reads the stored value.
var unreadAllowed = map[string]string{
	"linmodel.LogisticScratch.iters": "TestFitLogisticDampsOvershoot and BenchmarkFitLogistic's iters/fit metric read the Newton iteration count of the last fit",
}

// listedPkg is the part of `go list -json` output the reach test reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
}

// goListDeps lists the packages of the module in dir and all their
// dependencies, dependencies first, with the export data of each.
func goListDeps(dir string) ([]listedPkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// qualifiedName names fn as package.Func or package.Type.Method.
func qualifiedName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	return fn.Pkg().Name() + "." + rt.(*types.Named).Obj().Name() + "." + fn.Name()
}

// modules is the non-test code of both modules (this one and bench/),
// type-checked once per test process and shared by the reach tests.
type modules struct {
	fset *token.FileSet
	// pkgs are this module's packages under internal/ and cmd/, bar the
	// servetest and waltest helpers: the code whose declarations the reach
	// tests hold to having a use.
	pkgs []checkedPkg
	// used holds every object a non-test file of either module refers to,
	// by its origin (a generic type's fields and methods once, not per
	// instance), and every embedded field a promoted selection passes
	// through. A store to an unexported field or package-level var (see
	// stores) is not a reference to it.
	used map[types.Object]bool
	// fieldOwner names the struct type that declares each field of a
	// checked package's named struct types, for qualified names.
	fieldOwner map[*types.Var]*types.TypeName
	// ifaces is every interface a checked package can name: those it spells
	// out and those its imports declare.
	ifaces []*types.Interface
}

type checkedPkg struct {
	rel    string // import path below repro/
	syntax []*ast.File
	info   *types.Info
}

var (
	loadOnce sync.Once
	loaded   *modules
	loadErr  error
)

// loadModules type-checks the non-test files of both modules with go/types,
// packages in `go list -deps` order so a repro/... import resolves to the
// package already checked (every other import comes from the toolchain's
// export data).
func loadModules(t *testing.T) *modules {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = checkModules() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func checkModules() (*modules, error) {
	var pkgs []listedPkg
	seen := map[string]bool{}
	for _, dir := range []string{".", "bench"} {
		listed, err := goListDeps(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	m := &modules{fset: token.NewFileSet(), used: map[types.Object]bool{}, fieldOwner: map[*types.Var]*types.TypeName{}}
	exports := map[string]string{}
	gc := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	noteIface := func(typ types.Type) {
		if named, ok := typ.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		if it, ok := typ.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			m.ifaces = append(m.ifaces, it)
		}
	}
	noteIface(types.Universe.Lookup("error").Type())
	for _, p := range pkgs {
		if p.ImportPath != "repro" && !strings.HasPrefix(p.ImportPath, "repro/") {
			exports[p.ImportPath] = p.Export
			continue
		}
		var syntax []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			syntax = append(syntax, f)
		}
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, m.fset, syntax, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		stored := stores(syntax, info)
		for id, obj := range info.Uses {
			if !stored[id] || !storeIsNoUse(obj) {
				m.used[origin(obj)] = true
			}
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					m.fieldOwner[st.Field(i)] = tn
				}
			}
		}
		// A promoted selection (x.f where f belongs to an embedded field)
		// uses every embedded field on its path without naming one.
		for _, sel := range info.Selections {
			typ := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				st, ok := deref(typ).Underlying().(*types.Struct)
				if !ok {
					break
				}
				m.used[origin(st.Field(i))] = true
				typ = st.Field(i).Type()
			}
		}
		for _, tv := range info.Types {
			if tv.IsType() {
				noteIface(tv.Type)
			}
		}
		rel := strings.TrimPrefix(p.ImportPath, "repro/")
		if (strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")) &&
			!strings.HasPrefix(rel, "internal/serve/servetest") && !strings.HasPrefix(rel, "internal/wal/waltest") {
			m.pkgs = append(m.pkgs, checkedPkg{rel: rel, syntax: syntax, info: info})
		}
	}
	if len(m.pkgs) == 0 {
		return nil, fmt.Errorf("type-checked no package under internal/ or cmd/")
	}
	visited := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				noteIface(tn.Type())
			}
		}
		for _, dep := range pkg.Imports() {
			visit(dep)
		}
	}
	for _, pkg := range checked {
		visit(pkg)
	}
	return m, nil
}

// origin maps a field or method of a generic type's instance to its
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

// stores collects the identifiers that name what a statement or literal
// stores to: the target of =, of an op-assign and of ++ or --, when it is a
// name or a selector, and the keys of a struct literal.
func stores(files []*ast.File, info *types.Info) map[*ast.Ident]bool {
	stored := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		for p, ok := e.(*ast.ParenExpr); ok; p, ok = e.(*ast.ParenExpr) {
			e = p.X
		}
		switch x := e.(type) {
		case *ast.Ident:
			stored[x] = true
		case *ast.SelectorExpr:
			stored[x.Sel] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.CompositeLit:
				if tv, ok := info.Types[n]; ok {
					if _, ok := tv.Type.Underlying().(*types.Struct); ok {
						for _, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								target(kv.Key)
							}
						}
					}
				}
			}
			return true
		})
	}
	return stored
}

// storeIsNoUse reports whether a store to obj does not count as its use:
// obj is an unexported struct field or package-level var. An exported field
// can be read by reflection (encoding/json), so every mention counts.
func storeIsNoUse(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && !v.Exported() && (v.IsField() || (v.Pkg() != nil && v.Parent() == v.Pkg().Scope()))
}

func deref(typ types.Type) types.Type {
	if p, ok := typ.(*types.Pointer); ok {
		return p.Elem()
	}
	return typ
}

// satisfies reports whether method fn is callable through an interface: its
// receiver type implements an interface holding a method of that name
// (container/heap calls Less, an error's Error runs inside fmt) without any
// file naming it.
func (m *modules) satisfies(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt, ok := deref(recv.Type()).(*types.Named)
	if !ok || rt.TypeParams().Len() > 0 {
		return false // Implements is unspecified on a generic type
	}
	for _, it := range m.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it)) {
				return true
			}
		}
	}
	return false
}

// reached reports whether a non-test file uses obj, or, for a method,
// whether an interface can call it.
func (m *modules) reached(obj types.Object) bool {
	if m.used[obj] {
		return true
	}
	fn, ok := obj.(*types.Func)
	return ok && m.satisfies(fn)
}

// at renders obj's position relative to the working directory.
func (m *modules) at(obj types.Object) string {
	at := m.fset.Position(obj.Pos())
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, at.Filename); err == nil {
			at.Filename = rel
		}
	}
	return at.String()
}

// TestEveryExportedFuncIsReached keeps internal/ from carrying exported API
// that only tests call: it fails on an exported func or method declared
// under internal/ (bar the servetest and waltest helpers) that no non-test
// file of either module refers to and no interface can call.
func TestEveryExportedFuncIsReached(t *testing.T) {
	m := loadModules(t)
	var unreached []string
	flagged := map[string]bool{}
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		for _, f := range p.syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if m.reached(fn) {
					continue
				}
				name := qualifiedName(fn)
				flagged[name] = true
				if reachAllowed[name] == "" {
					unreached = append(unreached, name+" ("+m.at(fn)+")")
				}
			}
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("exported %s is called by no program; delete it, or allowlist it with the reason a test needs it", u)
	}
	for name := range reachAllowed {
		if !flagged[name] {
			t.Errorf("reachAllowed names %s, which is not an unreached exported func under internal/; drop the entry", name)
		}
	}
}

// TestEveryDeclarationIsReached holds the rest of internal/ and cmd/ to
// having a use outside tests: every unexported func and method, every
// struct field, and every package-level const and var. A field counts as
// used where a selector names it, or where a promoted selection passes
// through it (an embedded field); an exported field also where a keyed
// literal or a store names it. An unexported field or package-level var
// has to be read: a store to it (=, an op-assign, ++ or --, a struct
// literal's key) is no use. Code that only a test needs lives in that
// package's _test.go files; a stored field only a test reads goes in
// unreadAllowed with that test.
func TestEveryDeclarationIsReached(t *testing.T) {
	m := loadModules(t)
	var unreached []string
	flagged := map[string]bool{}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Defs {
			if obj == nil || id.Name == "_" || m.reached(obj) {
				continue
			}
			var what string
			switch o := obj.(type) {
			case *types.Func:
				sig := o.Type().(*types.Signature)
				if o.Exported() || (sig.Recv() == nil && (o.Name() == "main" || o.Name() == "init")) {
					continue
				}
				if sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
					continue // an interface's method: its implementations are checked
				}
				what = "func " + qualifiedName(o)
			case *types.Var:
				switch {
				case o.IsField():
					name := o.Pkg().Name() + "." + o.Name()
					if tn := m.fieldOwner[o]; tn != nil {
						name = o.Pkg().Name() + "." + tn.Name() + "." + o.Name()
					}
					flagged[name] = true
					if unreadAllowed[name] != "" {
						continue
					}
					what = "field " + name
				case o.Parent() == o.Pkg().Scope():
					what = "var " + o.Pkg().Name() + "." + o.Name()
				default:
					continue
				}
			case *types.Const:
				if o.Parent() != o.Pkg().Scope() {
					continue
				}
				what = "const " + o.Pkg().Name() + "." + o.Name()
			default:
				continue
			}
			unreached = append(unreached, what+" ("+m.at(obj)+")")
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is used by no program; delete it, or move it to the _test.go file that needs it", u)
	}
	for name := range unreadAllowed {
		if !flagged[name] {
			t.Errorf("unreadAllowed names %s, which is not an unread field under internal/ or cmd/; drop the entry", name)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
