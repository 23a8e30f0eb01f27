package gbt

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// walkTrees is the per-tree reference walk the compiled engine must
// reproduce: Init plus LR times each tree's branching prediction, summed in
// tree order.
func walkTrees(m *Model, x []float64) float64 {
	f := m.Init
	for _, t := range m.Trees {
		f += m.LR * t.Predict(x)
	}
	return f
}

// walkRows is walkTrees over every row of X.
func walkRows(m *Model, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = walkTrees(m, x)
	}
	return out
}

// requireBitIdentical checks that the compiled flat engine reproduces the
// per-tree path bit-for-bit on every row, through Predict, PredictBatch,
// and a scratch-reusing PredictBatchInto pass.
func requireBitIdentical(t *testing.T, m *Model, X [][]float64) {
	t.Helper()
	f := m.Compile()
	if len(f.roots) != len(m.Trees) {
		t.Fatalf("compiled %d trees, model has %d", len(f.roots), len(m.Trees))
	}
	want := make([]float64, len(X))
	for i, x := range X {
		want[i] = walkTrees(m, x)
		if got := f.Predict(x); math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: flat Predict %v, per-tree %v", i, got, want[i])
		}
	}
	for i, got := range f.PredictBatch(X) {
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: flat PredictBatch %v, per-tree %v", i, got, want[i])
		}
	}
	scratch := make([]float64, 1) // force the grow-and-reuse path
	scratch = f.PredictBatchInto(X, scratch)
	scratch = f.PredictBatchInto(X, scratch) // reused buffer must be reset
	for i, got := range scratch {
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: flat PredictBatchInto %v, per-tree %v", i, got, want[i])
		}
	}
	if m.Logistic {
		for i, x := range X {
			if got, want := f.PredictProb(x), sigmoid(walkTrees(m, x)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("row %d: flat PredictProb %v, per-tree %v", i, got, want)
			}
		}
	}
}

// randomMatrix draws n rows of width d with a mix of scales, plus a few
// duplicate rows to exercise shared-leaf paths.
func randomMatrix(rng *stats.RNG, n, d int) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.Normal(0, float64(1+j%3))
		}
	}
	for i := 3; i < n; i += 7 {
		X[i] = X[i-1]
	}
	return X
}

// Property: flat compilation is bit-identical to the per-tree path over
// randomized fitted models of every ensemble flavor the system ships —
// regressor, classifier, tobit, and warm-extended.
func TestFlatBitIdenticalProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 60 + rng.Intn(80)
		d := 2 + rng.Intn(6)
		X := randomMatrix(rng, n, d)
		y := make([]float64, n)
		for i := range y {
			y[i] = 2*X[i][0] - X[i][1%d] + rng.Normal(0, 0.3)
		}
		cfg := DefaultConfig()
		cfg.NumTrees = 5 + rng.Intn(20)
		cfg.Seed = seed
		if rng.Float64() < 0.5 {
			cfg.Tree.FeatureFrac = 0.8
		}

		reg, err := FitRegressor(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, reg, X)

		ext, err := reg.Extend(X, y, 1+rng.Intn(8), cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, ext, X)

		lbl := make([]float64, n)
		for i := range lbl {
			if y[i] > 0 {
				lbl[i] = 1
			}
		}
		clf, err := FitClassifier(X, lbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, clf, X)

		cens := make([]bool, n)
		yc := make([]float64, n)
		for i := range cens {
			yc[i] = math.Abs(y[i]) + 1
			cens[i] = rng.Float64() < 0.3
		}
		tob, err := FitTobit(X, yc, cens, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, tob, X)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// An ensemble with no splits (constant target) compiles to leaf-only trees;
// its max split feature is -1 and any row width, even zero, passes CheckWidth.
func TestFlatConstantModel(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	y := []float64{7, 7, 7, 7, 7, 7}
	m, err := FitRegressor(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := m.Compile()
	if f.maxFeat != -1 {
		t.Fatalf("max split feature %d for split-free ensemble, want -1", f.maxFeat)
	}
	if err := f.CheckWidth(0); err != nil {
		t.Fatalf("CheckWidth(0) on split-free ensemble: %v", err)
	}
	if got := f.Predict(nil); math.Float64bits(got) != math.Float64bits(walkTrees(m, nil)) {
		t.Fatalf("flat %v, per-tree %v", got, walkTrees(m, nil))
	}
}

func TestFlatCheckWidth(t *testing.T) {
	X, y := makeRegressionData(200, 0.1, 3)
	m, err := FitRegressor(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := m.Compile()
	if f.maxFeat < 0 {
		t.Fatal("expected at least one split")
	}
	if err := f.CheckWidth(f.maxFeat); !errors.Is(err, ErrRowWidth) {
		t.Fatalf("CheckWidth(%d) = %v, want ErrRowWidth", f.maxFeat, err)
	}
	if err := f.CheckWidth(f.maxFeat + 1); err != nil {
		t.Fatalf("CheckWidth(%d) = %v, want nil", f.maxFeat+1, err)
	}
}

// Regression: Extend's initial residual pass runs before tree.Fit's own
// validation, so a ragged row used to panic there; it must now surface as
// a typed width error.
func TestExtendRejectsRaggedRows(t *testing.T) {
	X, y := makeRegressionData(100, 0.1, 5)
	m, err := FitRegressor(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := append(append([][]float64{}, X...), []float64{1})
	yb := append(append([]float64{}, y...), 2)
	if _, err := m.Extend(bad, yb, 3, DefaultConfig()); !errors.Is(err, ErrRowWidth) {
		t.Fatalf("Extend on ragged rows: err = %v, want ErrRowWidth", err)
	}
}

// Compile must not share mutable state with the source model: growing the
// source afterwards (warm refit) leaves the compiled artifact unchanged.
func TestFlatImmutableAfterExtend(t *testing.T) {
	X, y := makeRegressionData(200, 0.2, 9)
	m, err := FitRegressor(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := m.Compile()
	before := f.PredictBatch(X)
	if _, err := m.Extend(X, y, 10, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for i, got := range f.PredictBatch(X) {
		if math.Float64bits(got) != math.Float64bits(before[i]) {
			t.Fatalf("row %d: compiled prediction changed after Extend", i)
		}
	}
}
