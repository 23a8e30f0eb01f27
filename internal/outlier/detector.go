// Package outlier implements the fourteen unsupervised outlier-detection
// baselines the paper evaluates (its Table 3 rows ABOD through XGBOD),
// following the primary publication for each method. All detectors share the
// Detector interface: Fit on a feature matrix, then Scores returns values
// where LARGER means MORE anomalous.
//
// Detectors are applied in the paper's protocol: fit on all feature vectors
// observed at a checkpoint and flag points whose score exceeds the
// (1-contamination) quantile of the training scores (contamination 0.1,
// matching the p90 straggler definition and the PyOD default).
package outlier

import (
	"fmt"
	"sort"

	"repro/internal/vecmath"
)

// Detector is an unsupervised anomaly scorer. Implementations standardize
// features internally; callers pass raw features.
type Detector interface {
	// Name returns the paper's label for the method (e.g. "LOF").
	Name() string
	// Fit trains the detector on X. It must be called before Scores.
	Fit(X [][]float64) error
	// Scores returns one anomaly score per row of X (higher = more
	// anomalous).
	Scores(X [][]float64) []float64
}

// Threshold returns the cut-point such that approximately a `contamination`
// fraction of trainScores exceed it.
func Threshold(trainScores []float64, contamination float64) float64 {
	if len(trainScores) == 0 {
		return 0
	}
	if contamination <= 0 {
		contamination = 0.1
	}
	s := append([]float64(nil), trainScores...)
	sort.Float64s(s)
	q := 1 - contamination
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

// scaledFit is the shared standardization helper: detectors embed it and
// call fitScaler in Fit, then transform queries with the training column
// statistics.
type scaledFit struct {
	mean, std []float64
}

func (s *scaledFit) fitScaler(X [][]float64) error {
	if len(X) == 0 {
		return fmt.Errorf("outlier: empty training set")
	}
	s.mean, s.std = vecmath.ColumnStats(X)
	return nil
}

func (s *scaledFit) transform(X [][]float64) [][]float64 {
	return vecmath.Standardize(X, s.mean, s.std)
}

// All returns one instance of every detector in the paper's Table 3 order,
// constructed with the defaults used throughout the evaluation. seed drives
// the stochastic detectors (IFOREST, MCD, CBLOF, LSCP, XGBOD). This is the
// one table of the detectors and their hyperparameters: predictor builds its
// Table 3 rows from it and picks each fit's detector from it by name.
func All(seed uint64) []Detector {
	return []Detector{
		NewABOD(10),
		NewCBLOF(8, 0.9, 5, seed),
		NewHBOS(10),
		NewIForest(100, 256, seed),
		NewKNN(5),
		NewLOF(10),
		NewMCD(0.75, seed),
		NewOCSVM(0.1, 30, seed),
		NewPCA(0.9),
		NewSOS(4.5),
		NewLSCP([]int{5, 10, 15, 20}, 10, seed),
		NewCOF(10),
		NewSOD(10, 8, 0.8),
		NewXGBOD(seed),
	}
}
