package repro

import (
	"encoding/json"
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
	"testing"
)

// reachAllowed exempts exported funcs and methods, by qualified name
// (package.Func or package.Type.Method), that no program calls, each for a
// stated reason: a test reads state through it.
var reachAllowed = map[string]string{
	"serve.Server.Budget":    "TestWALBudgetAfterRecovery and FuzzWALRecover cross-check the budget counters against the recovered job set",
	"serve.Server.DropJob":   "the WAL goldens (writeLogDir), TestWALBudgetAfterRecovery and FuzzSnapshotRestore drop jobs in process; /ingest drops arrive as drop frames through Feed",
	"tree.Regressor.Predict": "the branching reference walk: the gbt and tree bit-identity tests and BenchmarkPredictTree, which CI's flat inference gate times, compare the compiled walk against it",
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
func goListDeps(t *testing.T, dir string) []listedPkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list in %s: %v\n%s", dir, err, ee.Stderr)
		}
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
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

// TestEveryExportedFuncIsReached keeps internal/ from carrying exported API
// that only tests call. It type-checks the non-test files of both modules
// (this one and bench/) with go/types, packages in `go list -deps` order so
// a repro/... import resolves to the package already checked (every other
// import comes from the toolchain's export data), and fails on an exported
// func or method declared under internal/ (bar the servetest and waltest
// helpers) that no non-test file refers to. A method counts as reached when
// its receiver type implements an interface holding a method of that name:
// it is then callable through the interface (container/heap calls Less, an
// error's Error runs inside fmt) without any file naming it.
func TestEveryExportedFuncIsReached(t *testing.T) {
	var pkgs []listedPkg
	seen := map[string]bool{}
	for _, dir := range []string{".", "bench"} {
		for _, p := range goListDeps(t, dir) {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})

	used := map[*types.Func]bool{}
	declared := map[*types.Func]token.Pos{}
	var ifaces []*types.Interface
	noteIface := func(typ types.Type) {
		if named, ok := typ.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		if it, ok := typ.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	noteIface(types.Universe.Lookup("error").Type())
	files := 0
	for _, p := range pkgs {
		if p.ImportPath != "repro" && !strings.HasPrefix(p.ImportPath, "repro/") {
			exports[p.ImportPath] = p.Export
			continue
		}
		var syntax []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			syntax = append(syntax, f)
		}
		files += len(syntax)
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, syntax, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, tv := range info.Types {
			if tv.IsType() {
				noteIface(tv.Type)
			}
		}
		rel := strings.TrimPrefix(p.ImportPath, "repro/")
		if !strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "internal/serve/servetest") || strings.HasPrefix(rel, "internal/wal/waltest") {
			continue
		}
		for _, f := range syntax {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					declared[info.Defs[fd.Name].(*types.Func)] = fd.Pos()
				}
			}
		}
	}
	if files == 0 {
		t.Fatal("type-checked no files")
	}
	// Every interface a checked package can name: those it spells out (in
	// info.Types) and those its imports declare.
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
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if rt.(*types.Named).TypeParams().Len() > 0 {
			return false // Implements is unspecified on a generic type
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it)) {
					return true
				}
			}
		}
		return false
	}

	wd, _ := os.Getwd()
	var unreached []string
	flagged := map[string]bool{}
	for fn, pos := range declared {
		if used[fn] || satisfies(fn) {
			continue
		}
		name := qualifiedName(fn)
		flagged[name] = true
		if reachAllowed[name] == "" {
			at := fset.Position(pos)
			if rel, err := filepath.Rel(wd, at.Filename); err == nil {
				at.Filename = rel
			}
			unreached = append(unreached, name+" ("+at.String()+")")
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

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
