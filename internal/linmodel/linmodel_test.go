package linmodel

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// separable2D draws labels from a linear rule with margin.
func separable2D(n int, seed uint64) ([][]float64, []float64) {
	rng := stats.NewRNG(seed)
	var X [][]float64
	var y []float64
	for len(X) < n {
		x := []float64{rng.Normal(0, 2), rng.Normal(0, 2)}
		m := 2*x[0] - x[1]
		if math.Abs(m) < 0.5 {
			continue // enforce margin
		}
		X = append(X, x)
		if m > 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	return X, y
}

func TestLogisticSeparable(t *testing.T) {
	X, y := separable2D(400, 1)
	m, err := FitLogistic(X, y, DefaultLogisticConfig())
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range X {
		p := m.Prob(x)
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
		if (p >= 0.5) == (y[i] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.97 {
		t.Fatalf("logistic accuracy %v on separable data", acc)
	}
}

func TestLogisticCalibratedBaseRate(t *testing.T) {
	// Pure-noise features: predicted probabilities should hover near the
	// base rate, not near 0.5.
	rng := stats.NewRNG(2)
	var X [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		X = append(X, []float64{rng.Normal(0, 1)})
		if i < 50 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	m, err := FitLogistic(X, y, DefaultLogisticConfig())
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, x := range X {
		mean += m.Prob(x)
	}
	mean /= float64(len(X))
	if math.Abs(mean-0.1) > 0.05 {
		t.Fatalf("mean probability %v, want near base rate 0.1", mean)
	}
}

func TestLogisticBalancedRecentersSkew(t *testing.T) {
	rng := stats.NewRNG(3)
	var X [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		X = append(X, []float64{rng.Normal(0, 1)})
		if i < 25 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	cfg := DefaultLogisticConfig()
	cfg.Balanced = true
	m, err := FitLogistic(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, x := range X {
		mean += m.Prob(x)
	}
	mean /= float64(len(X))
	if math.Abs(mean-0.5) > 0.1 {
		t.Fatalf("balanced mean probability %v, want near 0.5", mean)
	}
}

func TestLogisticErrors(t *testing.T) {
	if _, err := FitLogistic(nil, nil, DefaultLogisticConfig()); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := FitLogistic([][]float64{{1}}, []float64{1, 0}, DefaultLogisticConfig()); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	// Inputs that used to panic (ragged or zero-width rows) or train on
	// silently (labels outside {0, 1}) are errors.
	for name, c := range map[string]struct {
		X [][]float64
		y []float64
	}{
		"short row":      {[][]float64{{1, 2}, {3}, {4, 5}}, []float64{1, 0, 1}},
		"long row":       {[][]float64{{1, 2}, {3, 4, 5}}, []float64{1, 0}},
		"zero-width":     {[][]float64{{}, {}}, []float64{1, 0}},
		"label 2":        {[][]float64{{1}, {2}}, []float64{2, 0}},
		"label -1":       {[][]float64{{1}, {2}}, []float64{1, -1}},
		"fraction label": {[][]float64{{1}, {2}}, []float64{0.5, 0}},
		"NaN label":      {[][]float64{{1}, {2}}, []float64{math.NaN(), 1}},
	} {
		for _, balanced := range []bool{false, true} {
			cfg := DefaultLogisticConfig()
			cfg.Balanced = balanced
			if m, err := FitLogistic(c.X, c.y, cfg); err == nil {
				t.Errorf("%s (balanced %v): fitted %+v, want an error", name, balanced, m)
			}
		}
	}
	cfg := DefaultLogisticConfig()
	if _, err := FitLogisticFlat([]float64{1, 2, 3}, 2, []float64{1, 0}, cfg, nil); err == nil {
		t.Error("expected error for a flat matrix that is not rows x columns")
	}
	if _, err := FitLogisticFlat(nil, 0, []float64{1, 0}, cfg, nil); err == nil {
		t.Error("expected error for zero columns")
	}
	if _, err := FitLogisticFlat(nil, 3, nil, cfg, nil); err == nil {
		t.Error("expected error for an empty flat training set")
	}
	// A negative ridge penalty makes the objective non-convex, and a NaN one
	// compares false with everything.
	for _, l2 := range []float64{-1e-3, math.Inf(-1), math.NaN()} {
		cfg := DefaultLogisticConfig()
		cfg.L2 = l2
		if m, err := FitLogistic([][]float64{{1}, {2}}, []float64{1, 0}, cfg); err == nil {
			t.Errorf("L2 %v: fitted %+v, want an error", l2, m)
		}
	}
}

// TestFitLogisticAllocations: with caller-owned scratch a fit allocates the
// model it returns (the struct, W, Mean, Std) and nothing that grows with
// the row count; the loop it replaced made n + 6 allocations.
func TestFitLogisticAllocations(t *testing.T) {
	cfg := DefaultLogisticConfig()
	cfg.Balanced = true
	for _, n := range []int{40, 400} {
		const d = 15
		X, y := caseData(stats.NewRNG(uint64(n)), n, d, 1)
		flat := flatten(X)
		var scratch LogisticScratch
		fit := func() {
			if _, err := FitLogisticFlat(flat, d, y, cfg, &scratch); err != nil {
				t.Fatal(err)
			}
		}
		fit() // sizes the scratch
		if allocs := testing.AllocsPerRun(10, fit); allocs > 4 {
			t.Errorf("%d rows: %v allocations per fit with reused scratch, want <= 4", n, allocs)
		}
	}
}

func TestRidgeRecoversCoefficients(t *testing.T) {
	rng := stats.NewRNG(4)
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		X[i] = []float64{rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1)}
		y[i] = 2*X[i][0] - 3*X[i][1] + 0.5*X[i][2] + 7 + rng.Normal(0, 0.01)
	}
	w, b, err := Ridge(X, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, -3, 0.5}
	for j := range want {
		if math.Abs(w[j]-want[j]) > 0.02 {
			t.Fatalf("w[%d] = %v, want %v", j, w[j], want[j])
		}
	}
	if math.Abs(b-7) > 0.02 {
		t.Fatalf("intercept %v, want 7", b)
	}
}

func TestRidgeShrinks(t *testing.T) {
	rng := stats.NewRNG(5)
	n := 100
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		X[i] = []float64{rng.Normal(0, 1)}
		y[i] = 4 * X[i][0]
	}
	wLo, _, err := Ridge(X, y, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	wHi, _, err := Ridge(X, y, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wHi[0]) >= math.Abs(wLo[0]) {
		t.Fatalf("ridge penalty failed to shrink: |%v| >= |%v|", wHi[0], wLo[0])
	}
}

func TestSVMSeparable(t *testing.T) {
	X, y := separable2D(400, 6)
	m, err := FitSVM(X, y, DefaultSVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range X {
		if m.Predict(x) == int(y[i]) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.95 {
		t.Fatalf("svm accuracy %v on separable data", acc)
	}
}

func TestSVMDecisionSign(t *testing.T) {
	X, y := separable2D(300, 7)
	m, err := FitSVM(X, y, DefaultSVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		d := m.Decision(x)
		if (d > 0) != (m.Predict(x) == 1) {
			t.Fatal("Decision sign and Predict disagree")
		}
		p := m.PlattProb(x)
		if p < 0 || p > 1 {
			t.Fatalf("platt prob %v out of range", p)
		}
		if (p > 0.5) != (d > 0) {
			t.Fatal("PlattProb and Decision disagree")
		}
		_ = i
	}
}

func TestSVMClassWeightShiftsRecall(t *testing.T) {
	// Imbalanced overlapping data: weighting the minority class should
	// raise minority recall.
	rng := stats.NewRNG(8)
	var X [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		if i < 50 {
			X = append(X, []float64{rng.Normal(1, 1)})
			y = append(y, 1)
		} else {
			X = append(X, []float64{rng.Normal(-1, 1)})
			y = append(y, 0)
		}
	}
	recall := func(cw map[int]float64) float64 {
		cfg := DefaultSVMConfig()
		cfg.ClassWeight = cw
		m, err := FitSVM(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tp, pos := 0, 0
		for i, x := range X {
			if y[i] == 1 {
				pos++
				if m.Predict(x) == 1 {
					tp++
				}
			}
		}
		return float64(tp) / float64(pos)
	}
	plain := recall(nil)
	weighted := recall(map[int]float64{1: 10})
	if weighted < plain {
		t.Fatalf("class weighting reduced recall: %v -> %v", plain, weighted)
	}
}

func TestSVMErrors(t *testing.T) {
	if _, err := FitSVM(nil, nil, DefaultSVMConfig()); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := FitSVM([][]float64{{1}}, []float64{1, 0}, DefaultSVMConfig()); err == nil {
		t.Fatal("expected error for length mismatch")
	}
}
