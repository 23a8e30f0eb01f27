package predictor

import (
	"strings"
	"testing"

	"repro/internal/outlier"
	"repro/internal/simulator"
	"repro/internal/trace"
)

func testSim(t *testing.T, seed uint64) *simulator.Sim {
	t.Helper()
	cfg := trace.DefaultGoogleConfig(seed)
	cfg.MinTasks, cfg.MaxTasks = 120, 160
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulator.New(gen.Next(), simulator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestAllFactoriesCoverTable3(t *testing.T) {
	fs := AllFactories()
	if len(fs) != 23 {
		t.Fatalf("%d factories, want 23 (Table 3 rows)", len(fs))
	}
	want := []string{"GBTR", "ABOD", "CBLOF", "HBOS", "IFOREST", "KNN", "LOF",
		"MCD", "OCSVM", "PCA", "SOS", "LSCP", "COF", "SOD", "XGBOD",
		"PU-EN", "PU-BG", "Tobit", "Grabit", "CoxPH", "Wrangler", "NURD-NC", "NURD"}
	for i, f := range fs {
		if f.Name != want[i] {
			t.Fatalf("factory %d is %q, want %q", i, f.Name, want[i])
		}
	}
}

func TestEveryPredictorRunsCleanly(t *testing.T) {
	sim := testSim(t, 5)
	for _, f := range AllFactories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			p := f.New(sim, 7)
			if p.Name() != f.Name {
				t.Fatalf("predictor name %q != factory name %q", p.Name(), f.Name)
			}
			res, err := simulator.Evaluate(sim, p)
			if err != nil {
				t.Fatal(err)
			}
			total := res.Final.TP + res.Final.FP + res.Final.TN + res.Final.FN
			if total != sim.Job.NumTasks() {
				t.Fatalf("confusion covers %d of %d tasks", total, sim.Job.NumTasks())
			}
		})
	}
}

func TestPredictorsHandleVerdictShape(t *testing.T) {
	sim := testSim(t, 6)
	cp := sim.At(3, nil)
	for _, f := range AllFactories() {
		p := f.New(sim, 11)
		p.Reset()
		out, err := p.Predict(cp)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if len(out) != len(cp.RunningIDs) {
			t.Fatalf("%s: %d verdicts for %d running tasks", f.Name, len(out), len(cp.RunningIDs))
		}
	}
}

func TestNURDGateDefersEarly(t *testing.T) {
	sim := testSim(t, 7)
	p := NewNURD()
	p.Reset()
	// Build a synthetic checkpoint with almost nothing finished: the gate
	// must defer (all-false) rather than predict from a starved model.
	full := sim.At(3, nil)
	if len(full.FinishedX) < 5 || len(full.RunningX) < 20 {
		t.Skip("checkpoint shape unsuitable for this construction")
	}
	cp := &simulator.Checkpoint{
		Index: 1, Norm: 0.1,
		TauRun: full.TauRun, TauStra: full.TauStra,
		StragglerQuantile: 0.9,
		FinishedIDs:       full.FinishedIDs[:2],
		FinishedX:         full.FinishedX[:2],
		FinishedY:         full.FinishedY[:2],
		RunningIDs:        full.RunningIDs,
		RunningX:          full.RunningX,
		RunningElapsed:    full.RunningElapsed,
	}
	out, err := p.Predict(cp)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v {
			t.Fatal("gated NURD must not flag while starved")
		}
	}
}

func TestNURDBeatsNaiveBaselines(t *testing.T) {
	// On a far-profile job NURD should clearly outperform GBTR and the
	// generic LOF detector in F1 — the paper's headline behaviour.
	cfg := trace.DefaultGoogleConfig(21)
	cfg.FarFraction = 1
	cfg.MinTasks, cfg.MaxTasks = 250, 250
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulator.New(gen.Next(), simulator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f1 := func(p simulator.Predictor) float64 {
		res, err := simulator.Evaluate(sim, p)
		if err != nil {
			t.Fatal(err)
		}
		return res.Final.F1()
	}
	nurdF1 := f1(NewNURD())
	gbtrF1 := f1(NewGBTR())
	lofF1 := f1(NewOutlier("LOF", 0.1, 1))
	if nurdF1 <= gbtrF1 {
		t.Fatalf("NURD %v <= GBTR %v", nurdF1, gbtrF1)
	}
	if nurdF1 <= lofF1 {
		t.Fatalf("NURD %v <= LOF %v", nurdF1, lofF1)
	}
	if nurdF1 < 0.6 {
		t.Fatalf("NURD F1 %v unexpectedly low on a far-profile job", nurdF1)
	}
}

func TestNURDNCHasHigherFPR(t *testing.T) {
	// Across a few jobs, removing calibration should not reduce FPR — the
	// ablation the paper reports.
	gen, err := trace.NewGenerator(trace.DefaultGoogleConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	var fprNURD, fprNC float64
	for i := 0; i < 4; i++ {
		sim, err := simulator.New(gen.Next(), simulator.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rn, err := simulator.Evaluate(sim, NewNURD())
		if err != nil {
			t.Fatal(err)
		}
		rc, err := simulator.Evaluate(sim, NewNURDNC())
		if err != nil {
			t.Fatal(err)
		}
		fprNURD += rn.Final.FPR()
		fprNC += rc.Final.FPR()
	}
	if fprNC < fprNURD-1e-9 {
		t.Fatalf("calibration should not raise FPR: NURD %v vs NC %v", fprNURD/4, fprNC/4)
	}
}

func TestUnknownDetectorName(t *testing.T) {
	p := NewOutlier("NOPE", 0.1, 1)
	sim := testSim(t, 9)
	cp := sim.At(3, nil)
	if _, err := p.Predict(cp); err == nil || !strings.Contains(err.Error(), "unknown detector") {
		t.Fatalf("expected unknown-detector error, got %v", err)
	}
}

func TestOutlierNamesMatchFactories(t *testing.T) {
	fs := AllFactories()
	if len(fs) < 15 {
		t.Fatalf("%d factories, want GBTR and the fourteen detectors first", len(fs))
	}
	for i, d := range outlier.All(1) {
		if fs[1+i].Name != d.Name() {
			t.Fatalf("factory %d is %q, want detector %q", 1+i, fs[1+i].Name, d.Name())
		}
		got, err := newDetector(d.Name(), 1)
		if err != nil || got.Name() != d.Name() {
			t.Fatalf("detector %q: got %v, %v", d.Name(), got, err)
		}
	}
}

func TestWranglerTrainsOnce(t *testing.T) {
	sim := testSim(t, 10)
	w := NewWrangler(sim, 3)
	res, err := simulator.Evaluate(sim, w)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle-assisted offline training: expect reasonable recall.
	if res.Final.TPR() < 0.3 {
		t.Fatalf("wrangler TPR %v suspiciously low for an oracle-assisted baseline", res.Final.TPR())
	}
}
