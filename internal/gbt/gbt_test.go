package gbt

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/stats"
)

// makeRegressionData builds y = 3*x0 - 2*x1 + noise.
func makeRegressionData(n int, noise float64, seed uint64) ([][]float64, []float64) {
	rng := stats.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 4, rng.Float64() * 4}
		y[i] = 3*X[i][0] - 2*X[i][1] + rng.Normal(0, noise)
	}
	return X, y
}

func mse(m *Model, X [][]float64, y []float64) float64 {
	s := 0.0
	for i, x := range X {
		d := walkTrees(m, x) - y[i]
		s += d * d
	}
	return s / float64(len(X))
}

func TestRegressorLearns(t *testing.T) {
	X, y := makeRegressionData(500, 0.1, 1)
	cfg := DefaultConfig()
	m, err := FitRegressor(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := stats.Variance(y)
	if got := mse(m, X, y); got > base*0.1 {
		t.Fatalf("train MSE %v vs target variance %v: model did not learn", got, base)
	}
}

func TestRegressorMoreTreesHelp(t *testing.T) {
	X, y := makeRegressionData(400, 0.1, 2)
	few := DefaultConfig()
	few.NumTrees = 5
	many := DefaultConfig()
	many.NumTrees = 80
	mf, err := FitRegressor(X, y, few)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := FitRegressor(X, y, many)
	if err != nil {
		t.Fatal(err)
	}
	if mse(mm, X, y) >= mse(mf, X, y) {
		t.Fatal("more boosting rounds should reduce training error")
	}
}

func TestRegressorDeterministic(t *testing.T) {
	X, y := makeRegressionData(200, 0.1, 4)
	cfg := DefaultConfig()
	cfg.Tree.FeatureFrac = 0.5
	cfg.Seed = 99
	a, err := FitRegressor(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitRegressor(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := X[i]
		if walkTrees(a, x) != walkTrees(b, x) {
			t.Fatal("same seed produced different models")
		}
	}
}

func TestClassifierSeparable(t *testing.T) {
	rng := stats.NewRNG(5)
	var X [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		x := []float64{rng.Normal(0, 1), rng.Normal(0, 1)}
		X = append(X, x)
		if x[0]+x[1] > 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	m, err := FitClassifier(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := m.Compile()
	correct := 0
	for i, x := range X {
		p := f.PredictProb(x)
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
		if (p >= 0.5) == (y[i] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.95 {
		t.Fatalf("classifier accuracy %v on separable data", acc)
	}
	if !m.Logistic {
		t.Fatal("classifier should mark Logistic output")
	}
}

func TestClassifierRejectsBadLabels(t *testing.T) {
	if _, err := FitClassifier([][]float64{{1}}, []float64{0.5}, DefaultConfig()); err == nil {
		t.Fatal("expected error for non-binary target")
	}
}

func TestTobitRecoversCensoredSignal(t *testing.T) {
	// True latency = 10 + 5*x. Censor everything above c (right censoring):
	// plain regression on (y -> min(y, c)) is biased low; the Tobit loss
	// should recover higher predictions for large x.
	rng := stats.NewRNG(6)
	n := 600
	X := make([][]float64, n)
	yTrue := make([]float64, n)
	yObs := make([]float64, n)
	cens := make([]bool, n)
	const c = 14.0
	for i := 0; i < n; i++ {
		x := rng.Float64() * 2
		X[i] = []float64{x}
		yTrue[i] = 10 + 5*x + rng.Normal(0, 0.5)
		if yTrue[i] > c {
			yObs[i] = c
			cens[i] = true
		} else {
			yObs[i] = yTrue[i]
		}
	}
	cfg := DefaultConfig()
	tob, err := FitTobit(X, yObs, cens, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := FitRegressor(X, yObs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At x = 1.9 the true mean is 19.5, far above the censor point.
	xq := []float64{1.9}
	if walkTrees(tob, xq) <= walkTrees(naive, xq) {
		t.Fatalf("tobit (%v) should exceed naive censored regression (%v) in the censored region",
			walkTrees(tob, xq), walkTrees(naive, xq))
	}
	if walkTrees(tob, xq) <= c {
		t.Fatalf("tobit prediction %v did not extrapolate past the censor point %v", walkTrees(tob, xq), c)
	}
}

func TestTobitErrors(t *testing.T) {
	if _, err := FitTobit([][]float64{{1}}, []float64{1}, []bool{true}, 0, DefaultConfig()); err == nil {
		t.Fatal("expected error when all rows are censored")
	}
	if _, err := FitTobit([][]float64{{1}}, []float64{1, 2}, []bool{false}, 0, DefaultConfig()); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestFitRegressorEmpty(t *testing.T) {
	if _, err := FitRegressor(nil, nil, DefaultConfig()); err == nil {
		t.Fatal("expected error for empty training set")
	}
}

func TestHazardTails(t *testing.T) {
	// hazard(z) must be positive, increasing, and ~z for large z.
	prev := 0.0
	for _, z := range []float64{-3, -1, 0, 1, 3, 6, 10} {
		h := hazard(z)
		if h <= 0 {
			t.Fatalf("hazard(%v) = %v", z, h)
		}
		if h < prev {
			t.Fatalf("hazard not increasing at %v", z)
		}
		prev = h
	}
	if h := hazard(12); math.Abs(h-12) > 1 {
		t.Fatalf("hazard tail approximation off: hazard(12)=%v", h)
	}
}

func TestPredictBatch(t *testing.T) {
	X, y := makeRegressionData(100, 0.1, 7)
	m, err := FitRegressor(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch := m.Compile().PredictBatch(X)
	for i, x := range X {
		if batch[i] != walkTrees(m, x) {
			t.Fatalf("batch[%d] mismatch", i)
		}
	}
}

// extendConfig exercises the stochastic component of the extension path
// (column subsampling draws from the derived RNG), so the determinism
// property below is meaningful.
func extendConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Tree.FeatureFrac = 0.5
	cfg.Seed = seed
	return cfg
}

// TestExtendDeterministic: extending the same previous model with the same
// data and seed must produce bit-identical ensembles across runs — the
// property warm-started serving refits (and their crash recovery) rely on.
func TestExtendDeterministic(t *testing.T) {
	X, y := makeRegressionData(200, 0.3, 17)
	base, err := FitRegressor(X[:120], y[:120], extendConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	a, err := base.Extend(X, y, 12, extendConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.Extend(X, y, 12, extendConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Extend runs with identical inputs diverged")
	}
	for i, x := range X {
		if walkTrees(a, x) != walkTrees(b, x) {
			t.Fatalf("row %d: predictions diverge between identical extensions", i)
		}
	}
	// Chained extensions are deterministic too (each derives its RNG from the
	// seed and the ensemble size it starts from).
	a2, err := a.Extend(X, y, 12, extendConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := b.Extend(X, y, 12, extendConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a2, b2) {
		t.Fatal("chained extensions diverged")
	}
	if reflect.DeepEqual(a, a2) {
		t.Fatal("second extension added no trees")
	}
}

// TestExtendZeroRoundsNoOp: a zero-round extension returns an equivalent
// model without touching the original.
func TestExtendZeroRoundsNoOp(t *testing.T) {
	X, y := makeRegressionData(150, 0.2, 23)
	base, err := FitRegressor(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := base.Extend(X, y, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Trees) != len(base.Trees) || out.Init != base.Init || out.LR != base.LR {
		t.Fatalf("zero-round extension changed the model shape: %d trees vs %d",
			len(out.Trees), len(base.Trees))
	}
	for i, x := range X {
		if walkTrees(out, x) != walkTrees(base, x) {
			t.Fatalf("row %d: zero-round extension changed predictions", i)
		}
	}
	// The copy must not alias the original's tree slice: a later real
	// extension of out leaves base untouched.
	grown, err := out.Extend(X, y, 5, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(grown.Trees) != len(base.Trees)+5 {
		t.Fatalf("extension added %d trees, want 5", len(grown.Trees)-len(base.Trees))
	}
	if len(base.Trees) != 50 {
		t.Fatalf("extension mutated the base model (%d trees)", len(base.Trees))
	}
}

// TestExtendTracksNewData: extending on a shifted training set moves
// predictions toward the new targets (the residual-correction property) and
// never mutates the previous ensemble's predictions.
func TestExtendTracksNewData(t *testing.T) {
	X, y := makeRegressionData(300, 0.2, 31)
	base, err := FitRegressor(X[:100], y[:100], DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := walkRows(base, X)
	ext, err := base.Extend(X, y, 25, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if mse(ext, X, y) >= mse(base, X, y) {
		t.Fatalf("extension did not reduce MSE on the updated set: %v vs %v",
			mse(ext, X, y), mse(base, X, y))
	}
	after := walkRows(base, X)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("row %d: Extend mutated the previous model", i)
		}
	}
}

// TestExtendRejectsLogistic: logistic ensembles cannot be extended with
// squared-error residual boosting.
func TestExtendRejectsLogistic(t *testing.T) {
	X, y := makeRegressionData(100, 0.2, 41)
	for i := range y {
		if y[i] > 2 {
			y[i] = 1
		} else {
			y[i] = 0
		}
	}
	m, err := FitClassifier(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Extend(X, y, 5, DefaultConfig()); err == nil {
		t.Fatal("extending a logistic ensemble should fail")
	}
}

// TestFitAllocationsBoundedPerTree gates the fit's allocation count: one
// FitRegressor allocates a fixed set of buffers for the whole fit plus the
// fitted tree itself (its struct and its node table) per round — however
// many rows the matrix has and however many nodes the trees grow. A split
// finder that sorts, allocates per node, or keeps per-round maps fails it.
//
// It also gates the bytes: after warm-up a fit allocates only the model it
// publishes (the Model, its slice of trees, and per tree the Regressor and
// its node table), since its working memory comes from fitPool. The bound
// allows 1 KiB beside the model for what another toolchain's escape analysis
// may put on the heap (an RNG, a closure); a buffer that silently stops being
// reused adds at least a byte per row, and fails at 3 000 rows.
func TestFitAllocationsBoundedPerTree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const perFit, perTree = 24, 2
	for _, tc := range []struct{ rows, depth, trees int }{
		{100, 3, 50},
		{100, 3, 10},
		{3000, 7, 50},
	} {
		X, y := makeRegressionData(tc.rows, 0.3, 11)
		cfg := DefaultConfig()
		cfg.NumTrees = tc.trees
		cfg.Tree.MaxDepth = tc.depth
		nodes := 0
		var m *Model
		got := testing.AllocsPerRun(3, func() {
			var err error
			if m, err = FitRegressor(X, y, cfg); err != nil {
				t.Fatal(err)
			}
			nodes = m.Trees[len(m.Trees)-1].NumNodes()
		})
		if limit := float64(perFit + perTree*tc.trees); got > limit {
			t.Errorf("%d rows, depth %d, %d trees (last has %d nodes): %.0f allocations, limit %.0f",
				tc.rows, tc.depth, tc.trees, nodes, got, limit)
		} else {
			t.Logf("%d rows, depth %d, %d trees (last has %d nodes): %.0f allocations", tc.rows, tc.depth, tc.trees, nodes, got)
		}
		if bytes, model := fitBytes(t, X, y, cfg), modelBytes(m); bytes > model+1<<10 {
			t.Errorf("%d rows, depth %d, %d trees: %d bytes per warmed fit, its model takes %d", tc.rows, tc.depth, tc.trees, bytes, model)
		} else {
			t.Logf("%d rows, depth %d, %d trees: %d bytes per warmed fit, its model takes %d", tc.rows, tc.depth, tc.trees, bytes, model)
		}
	}
}

// fitBytes is the heap one FitRegressor(X, y, cfg) allocates once fitPool
// holds a scratch for it: the least of three averages over four fits, since a
// collection can empty the pool mid-run.
func fitBytes(t *testing.T, X [][]float64, y []float64, cfg Config) uint64 {
	best := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 4; i++ {
			if _, err := FitRegressor(X, y, cfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/4)
	}
	return best
}

// modelBytes is the heap m occupies as a fit allocates it, each block rounded
// up to its allocation size class: the Model (48 bytes), its slice of trees,
// and per tree a 24-byte Regressor and a node table of 32 bytes per node (an
// int, two float64s and two int32s).
func modelBytes(m *Model) uint64 {
	// Appending n bytes to a nil slice allocates exactly n bytes rounded up to
	// their size class, and reports that as its capacity.
	class := func(n int) uint64 { return uint64(cap(append([]byte(nil), make([]byte, n)...))) }
	total := class(48) + class(8*cap(m.Trees))
	for _, tr := range m.Trees {
		total += class(24) + class(32*tr.NumNodes())
	}
	return total
}
