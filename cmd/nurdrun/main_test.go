package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/predictor"
	"repro/internal/simulator"
	"repro/internal/trace"
)

// writeJob writes the generator's second job as tracegen -format csv would
// and returns its path.
func writeJob(t *testing.T, cfg trace.GenConfig) string {
	t.Helper()
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen.Next()
	job := gen.Next()
	path := filepath.Join(t.TempDir(), "job.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// evaluate replays the job at path through p the way experiments.Run does.
func evaluate(t *testing.T, path string, p func(*simulator.Sim) simulator.Predictor) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	job, err := trace.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulator.New(job, simulator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Evaluate(sim, p(sim))
	if err != nil {
		t.Fatal(err)
	}
	return finalLine(res.Final)
}

// TestRunMatchesTable3NURD pins nurdrun to the Table 3 factory. On the
// Alibaba job, NURD with Google's two confirmations ends with a different
// confusion matrix, so a CLI that built its own NURD would fail there.
func TestRunMatchesTable3NURD(t *testing.T) {
	const seed = 42
	_, fac, ok := predictor.FindFactory("NURD")
	if !ok {
		t.Fatal("NURD factory not found")
	}
	for _, tc := range []struct {
		name string
		cfg  trace.GenConfig
	}{
		{"google", trace.DefaultGoogleConfig(seed)},
		{"alibaba", trace.DefaultAlibabaConfig(seed)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeJob(t, tc.cfg)
			var out bytes.Buffer
			if err := run(&out, path, seed, simulator.DefaultConfig().Checkpoints); err != nil {
				t.Fatal(err)
			}
			want := evaluate(t, path, func(s *simulator.Sim) simulator.Predictor { return fac.New(s, seed) })
			var got string
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, "final:") {
					got = line
				}
			}
			if got != want {
				t.Fatalf("nurdrun printed %q, the Table 3 NURD scores %q\n%s", got, want, out.String())
			}
			if tc.name == "alibaba" {
				if two := evaluate(t, path, func(*simulator.Sim) simulator.Predictor { return predictor.NewNURD(seed) }); two == want {
					t.Fatalf("two confirmations also score %q: this job no longer tells the two NURDs apart", two)
				}
			}
		})
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("not,a,trace\n1,2,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bad, filepath.Join(dir, "missing.csv")} {
		var out bytes.Buffer
		if err := run(&out, path, 42, 10); err == nil {
			t.Errorf("run(%s) = nil error, want one", filepath.Base(path))
		}
	}
}
