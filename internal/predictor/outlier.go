package predictor

import (
	"fmt"

	"repro/internal/outlier"
	"repro/internal/simulator"
)

// newDetector constructs a fresh detector by its Table 3 name.
func newDetector(name string, seed uint64) (outlier.Detector, error) {
	for _, d := range outlier.All(seed) {
		if d.Name() == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("predictor: unknown detector %q", name)
}

// OutlierPredictor runs one unsupervised detector under the protocol of the
// paper's comparison: at each checkpoint the detector is fit on every
// observed feature vector (finished + running) and a running task is
// flagged when its score exceeds the (1-contamination) quantile of the
// training scores.
type OutlierPredictor struct {
	name          string
	contamination float64
	seed          uint64
}

// NewOutlier constructs the adapter for the named detector.
func NewOutlier(name string, contamination float64, seed uint64) *OutlierPredictor {
	if contamination <= 0 || contamination >= 1 {
		contamination = 0.1
	}
	return &OutlierPredictor{name: name, contamination: contamination, seed: seed}
}

// Name implements simulator.Predictor.
func (p *OutlierPredictor) Name() string { return p.name }

// Reset implements simulator.Predictor.
func (p *OutlierPredictor) Reset() {}

// Predict implements simulator.Predictor.
func (p *OutlierPredictor) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	n := len(cp.FinishedX) + len(cp.RunningX)
	if n < 10 || len(cp.RunningX) == 0 {
		return make([]bool, len(cp.RunningIDs)), nil
	}
	det, err := newDetector(p.name, p.seed+uint64(cp.Index)*7919)
	if err != nil {
		return nil, err
	}
	X := make([][]float64, 0, n)
	X = append(X, cp.FinishedX...)
	X = append(X, cp.RunningX...)
	if xb, ok := det.(*outlier.XGBOD); ok {
		// XGBOD's meta-learner uses the only label signal legally available
		// online: finished (0) vs running (1).
		y := make([]float64, n)
		for i := len(cp.FinishedX); i < n; i++ {
			y[i] = 1
		}
		xb.SetLabels(y)
	}
	if err := det.Fit(X); err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	trainScores := det.Scores(X)
	thr := outlier.Threshold(trainScores, p.contamination)
	runScores := trainScores[len(cp.FinishedX):]
	out := make([]bool, len(cp.RunningX))
	for i, s := range runScores {
		out[i] = s > thr
	}
	return out, nil
}
