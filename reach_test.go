package repro

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

// reachAllowed exempts exported funcs and methods that no program names
// outside their own declaration, each for a stated reason: a test reads
// state through it, or it satisfies an interface that is called implicitly.
var reachAllowed = map[string]string{
	"Budget":             "serve.Server: TestWALBudgetAfterRecovery and FuzzWALRecover cross-check the budget counters against the recovered job set",
	"DropJob":            "serve.Server: the WAL goldens (writeLogDir), TestWALBudgetAfterRecovery and FuzzSnapshotRestore drop jobs in process; /ingest drops arrive as drop frames through Feed",
	"Compiled":           "nurd.Model: TestPredictBatchMatchesPredict pins that a published model carries its flat engine",
	"LatencyModelTrees":  "nurd.Model: TestRefitWarmExtends reads the latency ensemble's size that the warm-refit budget bounds",
	"Depth":              "tree.Regressor: TestDepthBound checks the grown tree against MaxDepth",
	"NumCols":            "tree.Regressor: TestAppendSoAMatchesPredict checks the split features against the training width",
	"DecodeEventPayload": "wire: TestWireRoundTrip and FuzzWireDecode decode an event payload into a fresh Event",
	"MarshalIndentJSON":  "workload.WorkloadSpec: TestScenarioFilesPinned and TestSpecJSONRoundTrip render the canonical scenario file",
	"Less":               "sched's machine and work heaps: container/heap calls it through heap.Interface",
	"Swap":               "sched's machine and work heaps: container/heap calls it through heap.Interface",
}

// TestEveryExportedFuncIsReached keeps internal/ from carrying exported API
// that only tests call. It parses every non-test .go file of both modules
// (this one and bench/) and fails on an exported func or method declared
// under internal/ (bar the servetest and waltest helpers) whose name appears
// in no non-test file except at a func declaration. The check is by name,
// not by type: any identifier of the same name elsewhere counts as a use, so
// it can miss dead code, and a name it flags is reached, if at all, only
// through an interface no program spells out (sort's Less, say).
func TestEveryExportedFuncIsReached(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	declared := map[string][]string{} // name -> positions of its declarations
	files := 0
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		dir := filepath.ToSlash(filepath.Dir(path))
		checked := strings.HasPrefix(dir, "internal/") &&
			!strings.HasPrefix(dir, "internal/serve/servetest") && !strings.HasPrefix(dir, "internal/wal/waltest")
		decls := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				decls[fd.Name] = true
				if checked && fd.Name.IsExported() {
					declared[fd.Name.Name] = append(declared[fd.Name.Name], fset.Position(fd.Pos()).String())
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil || files == 0 {
		t.Fatalf("parsed %d files (err %v)", files, err)
	}
	var unreached []string
	for name, at := range declared {
		if !used[name] && reachAllowed[name] == "" {
			unreached = append(unreached, name+" ("+strings.Join(at, ", ")+")")
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("exported %s is called by no program; delete it, or allowlist it with the reason a test needs it", u)
	}
	for name := range reachAllowed {
		if declared[name] == nil || used[name] {
			t.Errorf("reachAllowed names %s, which is not an unreached exported func under internal/; drop the entry", name)
		}
	}
}
