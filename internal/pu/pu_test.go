package pu

import (
	"testing"

	"repro/internal/stats"
)

// puSplit builds a negative-unlabeled setup: the labeled set holds
// negatives drawn from N(0,1); the unlabeled set mixes negatives with
// positives drawn from N(4,1).
func puSplit(nLabeled, nUnlNeg, nUnlPos int, seed uint64) (labeled, unlabeled [][]float64, posStart int) {
	rng := stats.NewRNG(seed)
	for i := 0; i < nLabeled; i++ {
		labeled = append(labeled, []float64{rng.Normal(0, 1), rng.Normal(0, 1)})
	}
	for i := 0; i < nUnlNeg; i++ {
		unlabeled = append(unlabeled, []float64{rng.Normal(0, 1), rng.Normal(0, 1)})
	}
	posStart = len(unlabeled)
	for i := 0; i < nUnlPos; i++ {
		unlabeled = append(unlabeled, []float64{rng.Normal(4, 1), rng.Normal(4, 1)})
	}
	return labeled, unlabeled, posStart
}

func TestElkanNotoSeparates(t *testing.T) {
	labeled, unlabeled, posStart := puSplit(150, 100, 40, 1)
	m, err := FitElkanNoto(labeled, unlabeled, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c := m.c; c <= 0 || c > 1 {
		t.Fatalf("label-frequency constant %v outside (0,1]", c)
	}
	// Unlabeled positives should receive clearly higher positive
	// probability than unlabeled negatives.
	negMean, posMean := 0.0, 0.0
	for i, x := range unlabeled {
		p := m.ProbPositive(x)
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
		if i < posStart {
			negMean += p
		} else {
			posMean += p
		}
	}
	negMean /= float64(posStart)
	posMean /= float64(len(unlabeled) - posStart)
	if posMean < negMean+0.3 {
		t.Fatalf("PU-EN separation too weak: pos %v vs neg %v", posMean, negMean)
	}
}

func TestElkanNotoErrors(t *testing.T) {
	if _, err := FitElkanNoto(nil, [][]float64{{1}}, 1); err == nil {
		t.Fatal("expected error with empty labeled set")
	}
	if _, err := FitElkanNoto([][]float64{{1}}, nil, 1); err == nil {
		t.Fatal("expected error with empty unlabeled set")
	}
	// Labeled and unlabeled rows of different widths used to panic in the
	// logistic fit.
	if _, err := FitElkanNoto([][]float64{{1, 2}, {3, 4}}, [][]float64{{1, 2}, {3}}, 1); err == nil {
		t.Fatal("expected error with ragged rows")
	}
}

func TestBaggingSeparates(t *testing.T) {
	labeled, unlabeled, posStart := puSplit(150, 100, 40, 2)
	cfg := DefaultBaggingConfig()
	cfg.Seed = 3
	m, err := FitBagging(labeled, unlabeled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	negMean, posMean := 0.0, 0.0
	for i, x := range unlabeled {
		p := m.ProbPositive(x)
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
		if i < posStart {
			negMean += p
		} else {
			posMean += p
		}
	}
	negMean /= float64(posStart)
	posMean /= float64(len(unlabeled) - posStart)
	if posMean < negMean+0.2 {
		t.Fatalf("PU-BG separation too weak: pos %v vs neg %v", posMean, negMean)
	}
}

func TestBaggingAggressiveOnShiftedUnlabeled(t *testing.T) {
	// The known PU failure mode in the straggler setting: the labeled
	// (finished) set is biased, so a bagging learner leans positive on
	// anything unusual — here even unlabeled NEGATIVES score fairly high.
	rng := stats.NewRNG(4)
	var labeled, unl [][]float64
	for i := 0; i < 100; i++ {
		labeled = append(labeled, []float64{rng.Normal(-1, 0.5)}) // biased slice of negatives
	}
	for i := 0; i < 100; i++ {
		unl = append(unl, []float64{rng.Normal(0.5, 0.5)}) // unlabeled negatives, shifted
	}
	cfg := DefaultBaggingConfig()
	m, err := FitBagging(labeled, unl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, x := range unl {
		mean += m.ProbPositive(x)
	}
	mean /= float64(len(unl))
	if mean < 0.5 {
		t.Fatalf("expected biased-positive behaviour, mean prob %v", mean)
	}
}

func TestBaggingErrors(t *testing.T) {
	if _, err := FitBagging(nil, [][]float64{{1}}, DefaultBaggingConfig()); err == nil {
		t.Fatal("expected error with empty labeled set")
	}
}
