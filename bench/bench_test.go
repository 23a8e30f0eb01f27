package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smokeSpec is a three-job miniature of specs/mixed.json: enough to drive
// every phase of every workload in well under a second.
const smokeSpec = `{
  "name": "smoke", "seed": 1, "duration_s": 30, "trace": "google",
  "clients": [
    {"name": "a", "arrival": {"process": "constant", "rate": 0.04}, "job_tasks": {"dist": "constant", "value": 30},
     "job_duration_s": {"dist": "constant", "value": 8}, "far_fraction": 1},
    {"name": "b", "arrival": {"process": "constant", "rate": 0.04}, "job_tasks": {"dist": "constant", "value": 45},
     "job_duration_s": {"dist": "constant", "value": 8}, "far_fraction": 0},
    {"name": "c", "arrival": {"process": "constant", "rate": 0.04}, "job_tasks": {"dist": "constant", "value": 120},
     "job_duration_s": {"dist": "constant", "value": 8}, "far_fraction": 1}
  ]
}`

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke keeps the harness compiling and honest under tier-1: every
// workload and metric BENCHMARK.json names is emitted exactly once, with
// its unit, and nothing fails.
func TestSmoke(t *testing.T) {
	bm, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(t.TempDir(), "smoke.json")
	if err := os.WriteFile(spec, []byte(smokeSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bm.Workloads), len(workloadNames))
	}
	for _, w := range bm.Workloads {
		for _, traced := range []bool{false, true} {
			want := bm.EndToEnd
			if traced {
				want = bm.PerLayer
			}
			res, err := runWorkload(options{workload: w.Name, spec: spec, out: t.TempDir(), seed: 1, trace: traced, setups: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, bmMetric := range want {
				got, ok := res.Metrics[bmMetric.Name]
				switch {
				case !metricName.MatchString(bmMetric.Name):
					t.Errorf("metric name %q is outside the contract", bmMetric.Name)
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.Name, traced, bmMetric.Name)
				case got.Unit != bmMetric.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, bmMetric.Name, got.Unit, bmMetric.Unit)
				}
			}
		}
	}
}

// TestNoCompatAliases keeps the benchmark off serve/compat.go, which
// ROADMAP 2(b) deletes in a change that may not edit this directory.
func TestNoCompatAliases(t *testing.T) {
	fset := token.NewFileSet()
	compat, err := parser.ParseFile(fset, "../internal/serve/compat.go", nil, 0)
	if os.IsNotExist(err) {
		t.Skip("serve/compat.go is gone")
	}
	if err != nil {
		t.Fatal(err)
	}
	aliases := map[string]bool{}
	for name := range compat.Scope.Objects {
		aliases[name] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "serve" && aliases[sel.Sel.Name] {
					t.Errorf("%s selects serve.%s, a compat.go alias", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}
