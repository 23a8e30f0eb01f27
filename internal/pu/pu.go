// Package pu implements the two positive-unlabeled learning baselines of the
// paper's Table 3: PU-EN, the Elkan–Noto correction (KDD 2008), and PU-BG,
// the bagging-SVM ensemble of Mordelet & Vert (2014).
//
// In the online straggler setting the only labeled class is the NEGATIVE one
// (finished tasks). The methods are therefore applied in the mirrored
// direction used by the paper's comparison: the "labeled" set is the
// finished tasks, the unlabeled set is the running tasks, and the target
// probability is P(straggler | x) = 1 - P(in labeled set | x)/c. This is
// exactly the setting in which the PU independence assumption (labels drawn
// uniformly at random from the class) is violated — finished tasks are
// biased toward low latency — which the paper identifies as the reason PU
// learners overshoot on FPR.
package pu

import (
	"fmt"

	"repro/internal/linmodel"
	"repro/internal/stats"
)

// ElkanNoto is a fitted PU-EN model.
type ElkanNoto struct {
	clf *linmodel.Logistic
	// c estimates P(labeled | in labeled class), the Elkan–Noto constant.
	c float64
}

// FitElkanNoto trains PU-EN. labeledX holds the labeled (finished) examples,
// unlabeledX the mixture. seed drives the internal holdout used to estimate
// the label frequency constant.
func FitElkanNoto(labeledX, unlabeledX [][]float64, seed uint64) (*ElkanNoto, error) {
	nl, nu := len(labeledX), len(unlabeledX)
	if nl == 0 || nu == 0 {
		return nil, fmt.Errorf("pu: need both labeled (%d) and unlabeled (%d) rows", nl, nu)
	}
	X := make([][]float64, 0, nl+nu)
	y := make([]float64, 0, nl+nu)
	X = append(X, labeledX...)
	for range labeledX {
		y = append(y, 1) // "labeled" indicator
	}
	X = append(X, unlabeledX...)
	for range unlabeledX {
		y = append(y, 0)
	}
	cfg := linmodel.DefaultLogisticConfig()
	clf, err := linmodel.FitLogistic(X, y, cfg)
	if err != nil {
		return nil, fmt.Errorf("pu: fitting the labeled-vs-unlabeled classifier: %w", err)
	}
	// c = E[g(x) | x labeled], estimated on a labeled holdout (here the
	// labeled set itself; with trace-scale data a separate holdout changes
	// little and the estimator remains consistent).
	rng := stats.NewRNG(seed ^ 0xe1ca)
	sampleN := nl
	if sampleN > 256 {
		sampleN = 256
	}
	idx := rng.Sample(nl, sampleN)
	c := 0.0
	for _, i := range idx {
		c += clf.Prob(labeledX[i])
	}
	c /= float64(sampleN)
	if c < 1e-3 {
		c = 1e-3
	}
	if c > 1 {
		c = 1
	}
	return &ElkanNoto{clf: clf, c: c}, nil
}

// ProbPositive returns the corrected P(positive-class | x), where positive
// means straggler (NOT in the labeled finished set).
func (m *ElkanNoto) ProbPositive(x []float64) float64 {
	// P(labeled-class | x) = g(x)/c, so P(positive) = 1 - g(x)/c.
	p := 1 - m.clf.Prob(x)/m.c
	return stats.Clip(p, 0, 1)
}

// BaggingConfig controls PU-BG.
type BaggingConfig struct {
	// Rounds is the number of bagged classifiers.
	Rounds int
	// K is the size of each unlabeled bootstrap (defaults to the labeled
	// set size, the Mordelet–Vert recommendation).
	K    int
	Seed uint64
}

// DefaultBaggingConfig returns the ensemble settings used in the evaluation.
func DefaultBaggingConfig() BaggingConfig {
	return BaggingConfig{Rounds: 10}
}

// Bagging is a fitted PU-BG model.
type Bagging struct {
	models []*linmodel.SVM
}

// FitBagging trains PU-BG: each round trains a linear SVM discriminating
// the full labeled set from a bootstrap of the unlabeled set; scores are
// averaged over rounds.
func FitBagging(labeledX, unlabeledX [][]float64, cfg BaggingConfig) (*Bagging, error) {
	nl, nu := len(labeledX), len(unlabeledX)
	if nl == 0 || nu == 0 {
		return nil, fmt.Errorf("pu: need both labeled (%d) and unlabeled (%d) rows", nl, nu)
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 10
	}
	k := cfg.K
	if k <= 0 {
		k = nl
	}
	if k > nu {
		k = nu
	}
	rng := stats.NewRNG(cfg.Seed ^ 0xba66)
	var models []*linmodel.SVM
	for r := 0; r < cfg.Rounds; r++ {
		X := make([][]float64, 0, nl+k)
		y := make([]float64, 0, nl+k)
		X = append(X, labeledX...)
		for range labeledX {
			y = append(y, 0) // labeled = finished = negative class
		}
		for i := 0; i < k; i++ {
			X = append(X, unlabeledX[rng.Intn(nu)])
			y = append(y, 1) // treat unlabeled as provisional positive
		}
		scfg := linmodel.DefaultSVMConfig()
		scfg.Seed = rng.Uint64()
		m, err := linmodel.FitSVM(X, y, scfg)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	return &Bagging{models: models}, nil
}

// ProbPositive returns the ensemble-averaged probability that x is a
// straggler.
func (m *Bagging) ProbPositive(x []float64) float64 {
	s := 0.0
	for _, svm := range m.models {
		s += svm.PlattProb(x)
	}
	return s / float64(len(m.models))
}
