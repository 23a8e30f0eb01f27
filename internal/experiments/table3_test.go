package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/predictor"
	"repro/internal/simulator"
)

var update = flag.Bool("update", false, "rewrite testdata/table3.golden")

// TestTable3Golden pins Table 3 — every method on both trace flavors, three
// jobs each at seed 42 — to testdata/table3.golden, so a change that moves a
// cell shows it in its diff. `go test ./internal/experiments -run
// TestTable3Golden -update` rewrites the golden.
func TestTable3Golden(t *testing.T) {
	const jobs, seed = 3, 42
	var evs []*Evaluation
	for _, spec := range []TraceSpec{GoogleSpec(jobs, seed), AlibabaSpec(jobs, seed)} {
		ev, err := Run(spec, predictor.AllFactories(), simulator.DefaultConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	got := Table3(evs)
	golden := filepath.Join("testdata", "table3.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Table 3 moved from %s (rewrite it with -update if the move is intended):\n%s", golden, got)
	}
}
