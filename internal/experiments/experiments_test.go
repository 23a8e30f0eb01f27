package experiments

import (
	"strings"
	"testing"

	"repro/internal/predictor"
	"repro/internal/simulator"
	"repro/internal/trace"
)

// smallFactories keeps integration tests fast: one cheap baseline + NURD.
func smallFactories() []predictor.Factory {
	return []predictor.Factory{
		{Name: "GBTR", New: func(_ *simulator.Sim, seed uint64) simulator.Predictor {
			return predictor.NewGBTR()
		}},
		{Name: "NURD", New: func(_ *simulator.Sim, seed uint64) simulator.Predictor {
			return predictor.NewNURD()
		}},
	}
}

func smallSpec(n int) TraceSpec {
	spec := GoogleSpec(n, 77)
	spec.Gen.MinTasks, spec.Gen.MaxTasks = 100, 140
	return spec
}

func TestRunEndToEnd(t *testing.T) {
	ev, err := Run(smallSpec(3), smallFactories(), simulator.DefaultConfig(), 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Jobs) != 3 || len(ev.Sims) != 3 {
		t.Fatalf("%d jobs, %d sims", len(ev.Jobs), len(ev.Sims))
	}
	if len(ev.Methods) != 2 {
		t.Fatalf("%d methods", len(ev.Methods))
	}
	for _, m := range ev.Methods {
		if len(m.PerJob) != 3 || len(m.Plans) != 3 || len(m.PerCheckpointF1) != 3 {
			t.Fatalf("%s: incomplete results", m.Name)
		}
		for _, f1s := range m.PerCheckpointF1 {
			if len(f1s) != 10 {
				t.Fatalf("%s: %d checkpoint F1s", m.Name, len(f1s))
			}
		}
		avg := m.Avg()
		if avg.F1 < 0 || avg.F1 > 1 {
			t.Fatalf("%s: F1 %v", m.Name, avg.F1)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallSpec(2), smallFactories(), simulator.DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallSpec(2), smallFactories(), simulator.DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for mi := range a.Methods {
		for ji := range a.Methods[mi].PerJob {
			if a.Methods[mi].PerJob[ji] != b.Methods[mi].PerJob[ji] {
				t.Fatalf("%s job %d differs across runs despite same seed",
					a.Methods[mi].Name, ji)
			}
		}
	}
}

func TestTable3Rendering(t *testing.T) {
	ev, err := Run(smallSpec(2), smallFactories(), simulator.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	out := Table3([]*Evaluation{ev})
	if !strings.Contains(out, "GBTR") || !strings.Contains(out, "NURD") {
		t.Fatalf("table missing methods:\n%s", out)
	}
	if !strings.Contains(out, "Google") {
		t.Fatalf("table missing trace label:\n%s", out)
	}
}

func TestBestBaselineExcludes(t *testing.T) {
	ev, err := Run(smallSpec(2), smallFactories(), simulator.DefaultConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	name, f1 := BestBaselineF1(ev, "NURD")
	if name != "GBTR" {
		t.Fatalf("best baseline %q, want GBTR", name)
	}
	if f1 < 0 || f1 > 1 {
		t.Fatalf("baseline F1 %v", f1)
	}
}

func TestTimelineSeries(t *testing.T) {
	ev, err := Run(smallSpec(2), smallFactories(), simulator.DefaultConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	out := TimelineSeries(ev)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 methods
		t.Fatalf("%d timeline lines:\n%s", len(lines), out)
	}
}

func TestReductionAndSweep(t *testing.T) {
	ev, err := Run(smallSpec(2), smallFactories(), simulator.DefaultConfig(), 13)
	if err != nil {
		t.Fatal(err)
	}
	names, red, err := Reduction(ev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || len(red) != 2 {
		t.Fatalf("reduction shapes %d/%d", len(names), len(red))
	}
	counts := []int{50, 200}
	_, sweep, err := MachineSweep(ev, counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2 || len(sweep[0]) != 2 {
		t.Fatalf("sweep shape %dx%d", len(sweep), len(sweep[0]))
	}
	avg := AverageOverMachines(sweep)
	if len(avg) != 2 {
		t.Fatalf("avg length %d", len(avg))
	}
	// Rendering helpers should produce non-empty aligned text.
	if s := RenderBars(names, red); !strings.Contains(s, "%") {
		t.Fatalf("bars render:\n%s", s)
	}
	if s := RenderSweep(names, counts, sweep); !strings.Contains(s, "50") {
		t.Fatalf("sweep render:\n%s", s)
	}
}

func TestNURDReductionPositive(t *testing.T) {
	// Mitigation pays off on far-profile jobs, where stragglers run many
	// multiples of the bulk latency. (Near-profile jobs cap out at ~1.7x
	// the threshold, so their reductions hover near zero.)
	spec := smallSpec(3)
	spec.Gen.FarFraction = 1
	ev, err := Run(spec, smallFactories(), simulator.DefaultConfig(), 15)
	if err != nil {
		t.Fatal(err)
	}
	names, red, err := Reduction(ev, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if n == "NURD" && red[i] <= 0 {
			t.Fatalf("NURD JCT reduction %v, want positive", red[i])
		}
	}
}

func TestFig1BothModes(t *testing.T) {
	for _, mode := range []trace.Mode{trace.ModeGoogle, trace.ModeAlibaba} {
		out, err := Fig1(mode, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "profile=far") || !strings.Contains(out, "profile=near") {
			t.Fatalf("fig1 missing profiles:\n%s", out)
		}
		if !strings.Contains(out, "p90") {
			t.Fatalf("fig1 missing threshold marker:\n%s", out)
		}
	}
}

func TestSpecsConfigureModes(t *testing.T) {
	g := GoogleSpec(5, 1)
	if g.Gen.Mode != trace.ModeGoogle || g.NumJobs != 5 {
		t.Fatalf("google spec %+v", g)
	}
	a := AlibabaSpec(7, 1)
	if a.Gen.Mode != trace.ModeAlibaba || a.NumJobs != 7 {
		t.Fatalf("alibaba spec %+v", a)
	}
}
