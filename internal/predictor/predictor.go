// Package predictor adapts every method in the paper's Table 3 to the
// online protocol of package simulator: NURD and NURD-NC (package nurd), the
// supervised GBTR baseline, the fourteen outlier detectors, the two PU
// learners, the three censored/survival regressors, and Wrangler.
//
// Each adapter is stateful per job; the harness constructs a fresh instance
// per (job, method) pair through Factory.New.
package predictor

import (
	"fmt"

	"repro/internal/gbt"
	"repro/internal/nurd"
	"repro/internal/outlier"
	"repro/internal/simulator"
)

// Factory constructs a predictor for one job replay. Oracle-assisted
// methods (Wrangler) inspect the Sim; honest online methods ignore it.
type Factory struct {
	// Name is the method label (Table 3 row).
	Name string
	// New builds a fresh predictor for the given job replay.
	New func(s *simulator.Sim, seed uint64) simulator.Predictor
}

// AllFactories returns every method in the paper's Table 3, in table order.
func AllFactories() []Factory {
	fs := []Factory{
		{Name: "GBTR", New: func(_ *simulator.Sim, seed uint64) simulator.Predictor {
			return NewGBTR()
		}},
	}
	for _, d := range outlier.All(0) {
		name := d.Name()
		fs = append(fs, Factory{Name: name, New: func(_ *simulator.Sim, seed uint64) simulator.Predictor {
			return NewOutlier(name, 0.1, seed)
		}})
	}
	fs = append(fs,
		Factory{Name: "PU-EN", New: func(_ *simulator.Sim, seed uint64) simulator.Predictor {
			return NewPUEN(seed)
		}},
		Factory{Name: "PU-BG", New: func(_ *simulator.Sim, seed uint64) simulator.Predictor {
			return NewPUBG(seed)
		}},
		Factory{Name: "Tobit", New: func(_ *simulator.Sim, seed uint64) simulator.Predictor {
			return NewTobit()
		}},
		Factory{Name: "Grabit", New: func(_ *simulator.Sim, seed uint64) simulator.Predictor {
			return NewGrabit()
		}},
		Factory{Name: "CoxPH", New: func(_ *simulator.Sim, seed uint64) simulator.Predictor {
			return NewCoxPH()
		}},
		Factory{Name: "Wrangler", New: func(s *simulator.Sim, seed uint64) simulator.Predictor {
			return NewWrangler(s, seed)
		}},
		Factory{Name: "NURD-NC", New: func(s *simulator.Sim, seed uint64) simulator.Predictor {
			p := NewNURDNC()
			p.confirm = confirmFor(s)
			return p
		}},
		Factory{Name: "NURD", New: func(s *simulator.Sim, seed uint64) simulator.Predictor {
			p := NewNURD()
			p.confirm = confirmFor(s)
			return p
		}},
	)
	return fs
}

// FindFactory returns the index and factory of the named Table 3 method
// within AllFactories. The index matters beyond lookup: experiments.Run
// derives each (job, method) seed from the method's position in the factory
// list, so callers that replay a single method outside Run (the serving
// tests) need the same index to reproduce identical predictors.
func FindFactory(name string) (int, Factory, bool) {
	for i, f := range AllFactories() {
		if f.Name == name {
			return i, f, true
		}
	}
	return -1, Factory{}, false
}

// ConfirmFor exposes the per-dataset confirmation requirement used by the
// NURD factories (see confirmFor); the serving layer uses it to build
// predictors equivalent to AllFactories' without a Sim in hand.
func ConfirmFor(schema []string) int {
	if len(schema) <= 4 {
		return 1
	}
	return 2
}

// confirmFor selects the confirmation requirement per dataset, mirroring
// the paper's per-dataset hyperparameter tuning (§6): with the 15-feature
// Google schema the models are sharp enough that borderline verdicts are
// worth double-checking (confirm = 2 suppresses measurement-noise false
// positives); with the 4-feature Alibaba schema verdicts sharpen only as
// the job progresses and waiting a checkpoint forfeits most of the
// mitigation benefit, so flags fire on first crossing (confirm = 1).
func confirmFor(s *simulator.Sim) int {
	if s == nil {
		return 2
	}
	return ConfirmFor(s.Job.Schema)
}

// NURDPredictor adapts nurd.Model to the online protocol. Because the
// monitored features carry per-checkpoint measurement noise, a termination
// (irreversible under the protocol) requires Confirm consecutive positive
// verdicts; stragglers stay positive across checkpoints while noise-driven
// borderline positives flicker and are suppressed.
type NURDPredictor struct {
	cfg     nurd.Config
	model   *nurd.Model
	name    string
	confirm int
	// streak counts consecutive positive verdicts per task ID.
	streak map[int]int
	// scratch holds PredictBatch's reusable buffers; a predictor is driven
	// by one goroutine at a time (the simulator loop or a refit worker), so
	// unsynchronized reuse is safe.
	scratch nurd.PredictScratch
}

// NewNURD returns the full method with calibration. Its fits draw no
// random numbers, so it takes no seed.
func NewNURD() *NURDPredictor {
	return &NURDPredictor{cfg: nurd.DefaultConfig(), name: "NURD", confirm: 2}
}

// NewNURDNC returns the no-calibration ablation (w = z).
func NewNURDNC() *NURDPredictor {
	cfg := nurd.DefaultConfig()
	cfg.Calibrate = false
	return &NURDPredictor{cfg: cfg, name: "NURD-NC", confirm: 2}
}

// NewNURDWith returns an adapter with a custom configuration (ablations).
// confirm is the consecutive-positive count required to terminate (1 =
// immediate, the literal Algorithm 1).
func NewNURDWith(name string, cfg nurd.Config, confirm int) *NURDPredictor {
	if confirm < 1 {
		confirm = 1
	}
	return &NURDPredictor{cfg: cfg, name: name, confirm: confirm}
}

// Name implements simulator.Predictor.
func (p *NURDPredictor) Name() string { return p.name }

// Reset implements simulator.Predictor.
func (p *NURDPredictor) Reset() {
	p.model = nil
	p.streak = nil
}

// Model exposes the underlying nurd.Model after the first checkpoint
// (diagnostics and tests).
func (p *NURDPredictor) Model() *nurd.Model { return p.model }

// RefitCounts reports how many of this predictor's refits warm-started the
// latency model vs fitted it from scratch (zero before the first gated
// checkpoint). The serving layer's refit pipeline reads it for /stats.
func (p *NURDPredictor) RefitCounts() (warm, scratch uint64) {
	if p.model == nil {
		return 0, 0
	}
	return p.model.RefitCounts()
}

// Predict implements simulator.Predictor.
func (p *NURDPredictor) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	if len(cp.FinishedX) == 0 {
		return make([]bool, len(cp.RunningIDs)), nil
	}
	// Defer until the training set can support the two models.
	total := len(cp.FinishedX) + len(cp.RunningX)
	if p.cfg.MinFinishedFrac > 0 &&
		float64(len(cp.FinishedX)) < p.cfg.MinFinishedFrac*float64(total) {
		return make([]bool, len(cp.RunningIDs)), nil
	}
	if p.model == nil {
		p.model = nurd.New(p.cfg)
		if err := p.model.Init(cp.FinishedX, cp.RunningX); err != nil {
			return nil, err
		}
	}
	// Refit dispatches on the configuration: the scratch path (WarmRounds 0)
	// is bit-identical to the historical Update call, while warm
	// configurations extend the previous checkpoint's ensemble.
	if err := p.model.Refit(cp.FinishedX, cp.FinishedY, cp.RunningX); err != nil {
		return nil, err
	}
	if p.streak == nil {
		p.streak = make(map[int]int)
	}
	// Annealed decision threshold: early in the job the only hard fact
	// about a running task is latency >= tau_run, far below tau_stra, so a
	// positive verdict is a long extrapolation and the bar is raised; as
	// tau_run approaches tau_stra the bar anneals down to the paper's
	// literal test (adjusted >= tau_stra).
	anneal := 1.0
	if cp.TauStra > 0 && cp.TauRun < cp.TauStra {
		anneal = 1 + annealKappa*(1-cp.TauRun/cp.TauStra)
	}
	bar := cp.TauStra * anneal
	// One task-major pass through h_t's flat node table, bit-identical
	// to per-row Predict; the scratch buffers persist across checkpoints.
	preds, err := p.model.PredictBatch(cp.RunningX, &p.scratch)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(cp.RunningX))
	for i := range cp.RunningX {
		pr := preds[i]
		id := cp.RunningIDs[i]
		switch {
		case pr.Adjusted >= strongMargin*bar:
			// Far over the bar: flag immediately.
			out[i] = true
		case pr.Adjusted >= bar:
			// Borderline: require consecutive confirmation so measurement
			// noise cannot trigger an irreversible termination.
			p.streak[id]++
			out[i] = p.streak[id] >= p.confirm
		default:
			p.streak[id] = 0
		}
	}
	return out, nil
}

// annealKappa controls how much the decision bar is raised while the
// censoring horizon is still far below tau_stra.
const annealKappa = 1.0

// strongMargin is the adjusted-latency multiple of the annealed bar above
// which a verdict skips confirmation.
const strongMargin = 1.3

// GBTR is the supervised baseline: gradient-boosted regression fit on
// finished tasks only, with no reweighting; a running task is flagged when
// its raw latency prediction crosses tau_stra. Its fit draws no random
// numbers, so it takes no seed.
type GBTR struct{}

// NewGBTR constructs the baseline.
func NewGBTR() *GBTR { return &GBTR{} }

// Name implements simulator.Predictor.
func (p *GBTR) Name() string { return "GBTR" }

// Reset implements simulator.Predictor.
func (p *GBTR) Reset() {}

// Predict implements simulator.Predictor.
func (p *GBTR) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	if len(cp.FinishedX) == 0 {
		return make([]bool, len(cp.RunningIDs)), nil
	}
	m, err := gbt.FitRegressor(cp.FinishedX, cp.FinishedY, gbt.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("gbtr: %w", err)
	}
	out := make([]bool, len(cp.RunningX))
	for i, lat := range m.PredictBatch(cp.RunningX) {
		out[i] = lat >= cp.TauStra
	}
	return out, nil
}
