package repro

// layering_test.go enforces the serving stack's package layering with the
// toolchain itself instead of convention: `go list -deps` computes each
// layer's full transitive dependency closure, and the test fails if a
// lower layer ever grows an edge to a higher one. The one-way order is
//
//	wire  <-  wal  <-  serve  <-  servehttp
//	wire  <-  cluster
//
// wire (the frame codec) imports no sibling internal package at all; wal
// (storage) may see only wire; serve (the node core) must not reach back
// up into its front (servehttp). cluster is a leaf beside the stack, not a
// tier of it: the job→node ring, built on wire.Mix64 alone, with no server
// behind it. Without this test the layering would be aspirational — one
// convenient import away from a cycle the refactor existed to remove.
//
// The diagram is also the import list a reader sees: every name has one
// home. servehttp (and cmd/, examples/, the tests) import wire and wal
// directly for what lives there — wire.Event, wire.JobSpec, wal.Options,
// wal.ErrFailed — and serve for the node core only; serve re-exports
// nothing from the layers below it, and no test dot-imports it to make old
// unqualified names resolve (TestOneHomePerName).

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// transitiveDeps returns the package's full import closure (including
// itself), as `go list -deps` reports it.
func transitiveDeps(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", pkg).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list -deps %s: %v\n%s", pkg, err, ee.Stderr)
		}
		t.Fatalf("go list -deps %s: %v", pkg, err)
	}
	deps := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line != "" {
			deps[line] = true
		}
	}
	return deps
}

func TestLayeringWireImportsNoSiblings(t *testing.T) {
	for dep := range transitiveDeps(t, "repro/internal/wire") {
		if strings.HasPrefix(dep, "repro/") && dep != "repro/internal/wire" {
			t.Errorf("internal/wire depends on %s; the codec layer must import no sibling internal package", dep)
		}
	}
}

func TestLayeringWALBelowServe(t *testing.T) {
	deps := transitiveDeps(t, "repro/internal/wal")
	for _, forbidden := range []string{
		"repro/internal/serve",
		"repro/internal/servehttp",
		"repro/internal/cluster",
	} {
		if deps[forbidden] {
			t.Errorf("internal/wal depends on %s; storage sits below the node core", forbidden)
		}
	}
	for dep := range deps {
		if strings.HasPrefix(dep, "repro/") && dep != "repro/internal/wal" && dep != "repro/internal/wire" {
			t.Errorf("internal/wal depends on %s; only internal/wire is below the storage layer", dep)
		}
	}
}

func TestLayeringServeBelowFronts(t *testing.T) {
	deps := transitiveDeps(t, "repro/internal/serve")
	for _, forbidden := range []string{"repro/internal/servehttp", "repro/internal/cluster"} {
		if deps[forbidden] {
			t.Errorf("internal/serve depends on %s; the node core must not reach up into its fronts", forbidden)
		}
	}
}

// TestLayeringClusterIsALeaf keeps the ring from growing back into a
// serving tier: its only repro/ dependency is the hash it places with.
func TestLayeringClusterIsALeaf(t *testing.T) {
	for dep := range transitiveDeps(t, "repro/internal/cluster") {
		if strings.HasPrefix(dep, "repro/") && dep != "repro/internal/cluster" && dep != "repro/internal/wire" {
			t.Errorf("internal/cluster depends on %s; the ring may import only internal/wire", dep)
		}
	}
}

// TestNurdloadIsOnlyAClient keeps the load driver from hosting a server of
// its own again: its non-test code may talk HTTP to a running front end but
// may not import the front end or an in-process test server.
func TestNurdloadIsOnlyAClient(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{join .Imports "\n"}}`, "repro/cmd/nurdload").Output()
	if err != nil {
		t.Fatalf("go list repro/cmd/nurdload: %v", err)
	}
	for _, imp := range strings.Fields(string(out)) {
		if imp == "repro/internal/servehttp" || imp == "net/http/httptest" {
			t.Errorf("cmd/nurdload imports %s; it drives a server started elsewhere (nurdserve -listen)", imp)
		}
	}
}

func TestLayeringWaltestBelowServe(t *testing.T) {
	// The crash-injection test filesystem is part of the storage layer's
	// toolkit: usable from every layer's tests without dragging serve in.
	deps := transitiveDeps(t, "repro/internal/wal/waltest")
	if deps["repro/internal/serve"] {
		t.Error("internal/wal/waltest depends on internal/serve")
	}
}

// TestOneHomePerName keeps serve from growing a second name for anything
// wire or wal owns — no alias type, no package-level var or const that is
// just a wire.X / wal.X — and keeps tests from dot-importing serve, the
// other way a name ends up reachable without saying where it lives.
func TestOneHomePerName(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		isTest := strings.HasSuffix(path, "_test.go")
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") ||
			!isTest && filepath.ToSlash(filepath.Dir(path)) != "internal/serve" {
			return err
		}
		mode := parser.Mode(0)
		if isTest {
			mode = parser.ImportsOnly // so only the import check below can fire
		}
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		checked++
		for _, im := range f.Imports {
			if im.Name != nil && im.Name.Name == "." && im.Path.Value == `"repro/internal/serve"` {
				t.Errorf("%s dot-imports internal/serve; qualify serve.X and name wire/wal for the rest", path)
			}
		}
		for _, decl := range f.Decls { // package level only: a local is not a second name for callers
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Assign.IsValid() {
						t.Errorf("%s: alias type %s; name the owning package at the use site", fset.Position(sp.Pos()), sp.Name.Name)
					}
				case *ast.ValueSpec:
					for i, v := range sp.Values {
						sel, _ := v.(*ast.SelectorExpr)
						if sel == nil {
							continue
						}
						if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "wire" || pkg.Name == "wal") {
							t.Errorf("%s: %s re-exports %s.%s; use it from its home package", fset.Position(v.Pos()), sp.Names[i].Name, pkg.Name, sel.Sel.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil || checked == 0 {
		t.Fatalf("checked %d files under internal/ (err %v)", checked, err)
	}
}

// TestCIStepNamesParse guards ci.yml against the defect that once made it
// invalid YAML and so silently disabled every CI gate: a plain (unquoted)
// step name holding ": " or opening with a YAML indicator character. The
// check is by hand because the module has no YAML package.
func TestCIStepNamesParse(t *testing.T) {
	b, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for i, line := range strings.Split(string(b), "\n") {
		v, ok := strings.CutPrefix(strings.TrimSpace(line), "- name:")
		if !ok {
			continue
		}
		steps++
		v = strings.TrimSpace(v)
		if len(v) >= 2 && (v[0] == '"' || v[0] == '\'') && v[len(v)-1] == v[0] {
			continue
		}
		if v == "" || strings.Contains(v, ": ") || strings.HasSuffix(v, ":") || strings.ContainsRune("-?:,[]{}#&*!|>'\"%@`", rune(v[0])) {
			t.Errorf("ci.yml:%d: step name %q is not a valid plain YAML scalar; quote it", i+1, v)
		}
	}
	if steps == 0 {
		t.Fatal("ci.yml lists no steps")
	}
}

// TestLayoutTableNamesEveryPackage keeps README's Layout table a complete
// map of internal/: every package `go list` reports, bar the two test
// helpers, is named exactly once, and the table names nothing else.
func TestLayoutTableNamesEveryPackage(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(b), "\n## Layout\n")
	if !ok {
		t.Fatal("README.md has no \"## Layout\" section")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	named := map[string]int{}
	pkgRef := regexp.MustCompile("`(internal/[a-z/]+)`")
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue // prose under the table may mention the helpers
		}
		for _, m := range pkgRef.FindAllStringSubmatch(line, -1) {
			named["repro/"+m[1]]++
		}
	}
	out, err := exec.Command("go", "list", "./internal/...").Output()
	if err != nil {
		t.Fatalf("go list ./internal/...: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "repro/internal/wal/waltest" || pkg == "repro/internal/serve/servetest" {
			continue
		}
		if named[pkg] != 1 {
			t.Errorf("README Layout table names %s %d times, want once", pkg, named[pkg])
		}
		delete(named, pkg)
	}
	for pkg := range named {
		t.Errorf("README Layout table names %s, which go list does not report", pkg)
	}
}
