package predictor

import (
	"fmt"

	"repro/internal/censored"
	"repro/internal/gbt"
	"repro/internal/pu"
	"repro/internal/simulator"
)

// PUEN adapts the Elkan–Noto PU learner: labeled = finished tasks,
// unlabeled = running tasks; a running task is flagged when the corrected
// straggler probability reaches 0.5.
type PUEN struct {
	seed uint64
}

// NewPUEN constructs the adapter.
func NewPUEN(seed uint64) *PUEN { return &PUEN{seed: seed} }

// Name implements simulator.Predictor.
func (p *PUEN) Name() string { return "PU-EN" }

// Reset implements simulator.Predictor.
func (p *PUEN) Reset() {}

// Predict implements simulator.Predictor.
func (p *PUEN) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	if len(cp.FinishedX) == 0 || len(cp.RunningX) == 0 {
		return make([]bool, len(cp.RunningIDs)), nil
	}
	m, err := pu.FitElkanNoto(cp.FinishedX, cp.RunningX, p.seed+uint64(cp.Index))
	if err != nil {
		return nil, fmt.Errorf("pu-en: %w", err)
	}
	out := make([]bool, len(cp.RunningX))
	for i, x := range cp.RunningX {
		out[i] = m.ProbPositive(x) >= 0.5
	}
	return out, nil
}

// PUBG adapts the Mordelet–Vert bagging-SVM PU learner.
type PUBG struct {
	seed uint64
}

// NewPUBG constructs the adapter.
func NewPUBG(seed uint64) *PUBG { return &PUBG{seed: seed} }

// Name implements simulator.Predictor.
func (p *PUBG) Name() string { return "PU-BG" }

// Reset implements simulator.Predictor.
func (p *PUBG) Reset() {}

// Predict implements simulator.Predictor.
func (p *PUBG) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	if len(cp.FinishedX) == 0 || len(cp.RunningX) == 0 {
		return make([]bool, len(cp.RunningIDs)), nil
	}
	cfg := pu.DefaultBaggingConfig()
	cfg.Seed = p.seed + uint64(cp.Index)
	m, err := pu.FitBagging(cp.FinishedX, cp.RunningX, cfg)
	if err != nil {
		return nil, fmt.Errorf("pu-bg: %w", err)
	}
	out := make([]bool, len(cp.RunningX))
	for i, x := range cp.RunningX {
		out[i] = m.ProbPositive(x) >= 0.5
	}
	return out, nil
}

// TobitPredictor adapts linear censored regression: finished tasks are
// uncensored observations, running tasks are right-censored at the current
// horizon; a task is flagged when the latent-latency estimate crosses
// tau_stra.
type TobitPredictor struct{}

// NewTobit constructs the adapter.
func NewTobit() *TobitPredictor { return &TobitPredictor{} }

// Name implements simulator.Predictor.
func (p *TobitPredictor) Name() string { return "Tobit" }

// Reset implements simulator.Predictor.
func (p *TobitPredictor) Reset() {}

// Predict implements simulator.Predictor.
func (p *TobitPredictor) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	X, y, cens := censoredData(cp)
	if len(X) == 0 || len(cp.FinishedX) == 0 {
		return make([]bool, len(cp.RunningIDs)), nil
	}
	m, err := censored.FitTobit(X, y, cens, censored.DefaultTobitConfig())
	if err != nil {
		return nil, fmt.Errorf("tobit: %w", err)
	}
	out := make([]bool, len(cp.RunningX))
	for i, x := range cp.RunningX {
		out[i] = m.Predict(x) >= cp.TauStra
	}
	return out, nil
}

// GrabitPredictor adapts the boosted Tobit model (gbt.FitTobit). Its fit
// draws no random numbers, so it takes no seed.
type GrabitPredictor struct{}

// NewGrabit constructs the adapter.
func NewGrabit() *GrabitPredictor { return &GrabitPredictor{} }

// Name implements simulator.Predictor.
func (p *GrabitPredictor) Name() string { return "Grabit" }

// Reset implements simulator.Predictor.
func (p *GrabitPredictor) Reset() {}

// Predict implements simulator.Predictor.
func (p *GrabitPredictor) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	X, y, cens := censoredData(cp)
	if len(X) == 0 || len(cp.FinishedX) == 0 {
		return make([]bool, len(cp.RunningIDs)), nil
	}
	m, err := gbt.FitTobit(X, y, cens, 0, gbt.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("grabit: %w", err)
	}
	out := make([]bool, len(cp.RunningX))
	for i, lat := range m.PredictBatch(cp.RunningX) {
		out[i] = lat >= cp.TauStra
	}
	return out, nil
}

// CoxPHPredictor adapts Cox proportional hazards: finished tasks are events
// at their latency, running tasks are censored at the horizon; a task is
// flagged when the predicted probability of surviving past tau_stra reaches
// 0.5.
type CoxPHPredictor struct{}

// NewCoxPH constructs the adapter.
func NewCoxPH() *CoxPHPredictor { return &CoxPHPredictor{} }

// Name implements simulator.Predictor.
func (p *CoxPHPredictor) Name() string { return "CoxPH" }

// Reset implements simulator.Predictor.
func (p *CoxPHPredictor) Reset() {}

// Predict implements simulator.Predictor.
func (p *CoxPHPredictor) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	if len(cp.FinishedX) == 0 {
		return make([]bool, len(cp.RunningIDs)), nil
	}
	n := len(cp.FinishedX) + len(cp.RunningX)
	X := make([][]float64, 0, n)
	dur := make([]float64, 0, n)
	ev := make([]bool, 0, n)
	X = append(X, cp.FinishedX...)
	for _, l := range cp.FinishedY {
		dur = append(dur, l)
		ev = append(ev, true)
	}
	X = append(X, cp.RunningX...)
	for _, e := range cp.RunningElapsed {
		dur = append(dur, e)
		ev = append(ev, false)
	}
	m, err := censored.FitCoxPH(X, dur, ev, censored.DefaultCoxConfig())
	if err != nil {
		return nil, fmt.Errorf("coxph: %w", err)
	}
	out := make([]bool, len(cp.RunningX))
	for i, x := range cp.RunningX {
		out[i] = m.Survival(cp.TauStra, x) >= 0.5
	}
	return out, nil
}

// censoredData assembles the combined design for Tobit/Grabit: finished
// rows uncensored at their true latency, running rows right-censored at the
// checkpoint horizon.
func censoredData(cp *simulator.Checkpoint) (X [][]float64, y []float64, cens []bool) {
	n := len(cp.FinishedX) + len(cp.RunningX)
	X = make([][]float64, 0, n)
	y = make([]float64, 0, n)
	cens = make([]bool, 0, n)
	X = append(X, cp.FinishedX...)
	y = append(y, cp.FinishedY...)
	for range cp.FinishedX {
		cens = append(cens, false)
	}
	X = append(X, cp.RunningX...)
	for _, e := range cp.RunningElapsed {
		y = append(y, e)
		cens = append(cens, true)
	}
	return X, y, cens
}
