package tree

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// smallConfig grows shallow trees with small leaves.
var smallConfig = Config{MaxDepth: 3, MinLeaf: 5, MinSplit: 10}

func TestFitConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	tr, err := Fit(X, y, nil, smallConfig)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{2.5}); got != 5 {
		t.Fatalf("constant prediction %v, want 5", got)
	}
	if tr.NumNodes() != 1 {
		t.Fatalf("constant tree should be a single leaf, has %d nodes", tr.NumNodes())
	}
}

func TestFitRecoversStep(t *testing.T) {
	// y = 0 for x<5, y = 10 for x>=5: one split suffices.
	var X [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		x := float64(i) / 4
		X = append(X, []float64{x})
		if x < 5 {
			y = append(y, 0)
		} else {
			y = append(y, 10)
		}
	}
	tr, err := Fit(X, y, nil, Config{MaxDepth: 2, MinLeaf: 1, MinSplit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{1}); math.Abs(got) > 1e-9 {
		t.Fatalf("left prediction %v, want 0", got)
	}
	if got := tr.Predict([]float64{9}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("right prediction %v, want 10", got)
	}
}

func TestFitPicksInformativeFeature(t *testing.T) {
	rng := stats.NewRNG(1)
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		noise := rng.Normal(0, 1)
		signal := rng.Float64()
		X = append(X, []float64{noise, signal})
		if signal > 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	tr, err := Fit(X, y, nil, Config{MaxDepth: 1, MinLeaf: 5, MinSplit: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Predictions must follow feature 1, not feature 0.
	if tr.Predict([]float64{0, 0.9}) < 0.5 {
		t.Fatal("tree failed to split on the informative feature")
	}
	if tr.Predict([]float64{0, 0.1}) > -0.5 {
		t.Fatal("tree failed to split on the informative feature")
	}
}

func TestDepthBound(t *testing.T) {
	rng := stats.NewRNG(2)
	var X [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		x := rng.Float64()
		X = append(X, []float64{x})
		y = append(y, math.Sin(10*x))
	}
	for _, depth := range []int{1, 2, 4} {
		tr, err := Fit(X, y, nil, Config{MaxDepth: depth, MinLeaf: 1, MinSplit: 2})
		if err != nil {
			t.Fatal(err)
		}
		if d := tr.depth(); d > depth {
			t.Fatalf("depth %d exceeds bound %d", d, depth)
		}
	}
}

func TestMinLeafRespected(t *testing.T) {
	rng := stats.NewRNG(3)
	var X [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		X = append(X, []float64{x})
		y = append(y, x)
	}
	tr, err := Fit(X, y, nil, Config{MaxDepth: 10, MinLeaf: 20, MinSplit: 40})
	if err != nil {
		t.Fatal(err)
	}
	// With MinLeaf 20 over 100 points, at most 5 leaves.
	leaves := 0
	tr.AdjustLeaves(func(leaf int, v float64) float64 {
		leaves++
		return v
	})
	if leaves > 5 {
		t.Fatalf("%d leaves violate MinLeaf=20 over n=100", leaves)
	}
}

func TestWeightedFitPullsPrediction(t *testing.T) {
	// Two clusters at the same x: weights decide the leaf mean.
	X := [][]float64{{1}, {1}, {1}}
	y := []float64{0, 0, 9}
	w := []float64{1, 1, 2}
	tr, err := Fit(X, y, w, Config{MaxDepth: 1, MinLeaf: 1, MinSplit: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Weighted mean = (0+0+18)/4 = 4.5.
	if got := tr.Predict([]float64{1}); math.Abs(got-4.5) > 1e-9 {
		t.Fatalf("weighted mean %v, want 4.5", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, nil, smallConfig); err == nil {
		t.Fatal("expected error on empty input")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, nil, smallConfig); err == nil {
		t.Fatal("expected error on length mismatch")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, []float64{1, 2}, smallConfig); err == nil {
		t.Fatal("expected error on weight mismatch")
	}
}

// leafIndex walks x down t and returns the ordinal (in node-array order, as
// AdjustLeaves counts) of the leaf it lands in: the oracle for
// Presorted.Leaves and AdjustLeaves' numbering.
func leafIndex(t *Regressor, x []float64) int {
	// Map node index -> leaf ordinal.
	target := int32(0)
	for {
		n := &t.nodes[target]
		if n.feature < 0 {
			break
		}
		if x[n.feature] <= n.threshold {
			target = n.left
		} else {
			target = n.right
		}
	}
	leaf := 0
	for i := int32(0); i < target; i++ {
		if t.nodes[i].feature < 0 {
			leaf++
		}
	}
	return leaf
}

func TestLeafIndexConsistentWithAdjust(t *testing.T) {
	rng := stats.NewRNG(4)
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		X = append(X, x)
		y = append(y, x[0]+2*x[1])
	}
	tr, err := Fit(X, y, nil, Config{MaxDepth: 3, MinLeaf: 5, MinSplit: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Tag each leaf with its ordinal, then check leafIndex agrees with the
	// value found by Predict.
	tr.AdjustLeaves(func(leaf int, v float64) float64 { return float64(leaf) })
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if got, want := leafIndex(tr, x), int(tr.Predict(x)); got != want {
			t.Fatalf("LeafIndex %d != tagged leaf %d", got, want)
		}
	}
}

func TestScaleLeaves(t *testing.T) {
	X := [][]float64{{0}, {1}}
	y := []float64{2, 4}
	tr, err := Fit(X, y, nil, Config{MaxDepth: 1, MinLeaf: 1, MinSplit: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Predict([]float64{0})
	tr.ScaleLeaves(3)
	if got := tr.Predict([]float64{0}); math.Abs(got-3*before) > 1e-12 {
		t.Fatalf("scaled prediction %v, want %v", got, 3*before)
	}
}

func TestPredictionsWithinTargetRangeProperty(t *testing.T) {
	// Leaf values are means of training targets, so predictions can never
	// leave the training range.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 10 + rng.Intn(100)
		X := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range X {
			X[i] = []float64{rng.Normal(0, 1), rng.Normal(0, 1)}
			y[i] = rng.Normal(0, 10)
			if y[i] < lo {
				lo = y[i]
			}
			if y[i] > hi {
				hi = y[i]
			}
		}
		tr, err := Fit(X, y, nil, Config{MaxDepth: 4, MinLeaf: 1, MinSplit: 2})
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			p := tr.Predict([]float64{rng.Normal(0, 3), rng.Normal(0, 3)})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Regression: a ragged training matrix used to panic with
// index-out-of-range deep inside split scanning (possibly on a background
// refit worker); Fit must reject it up front with ErrRaggedRows.
func TestFitRejectsRaggedRows(t *testing.T) {
	X := [][]float64{{1, 2, 3}, {4, 5}, {6, 7, 8}}
	y := []float64{1, 2, 3}
	_, err := Fit(X, y, nil, Config{MaxDepth: 3, MinLeaf: 1, MinSplit: 2})
	if !errors.Is(err, ErrRaggedRows) {
		t.Fatalf("Fit on ragged rows: err = %v, want ErrRaggedRows", err)
	}
}

// Regression: FeatureFrac in (0,1) with a nil RNG used to silently fit
// without subsampling instead of failing fast; Fit must reject the config
// with ErrBadConfig so the misconfiguration surfaces at the boundary.
func TestFitRejectsFeatureFracWithoutRNG(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	y := []float64{1, 2, 3, 4}
	_, err := Fit(X, y, nil, Config{MaxDepth: 3, MinLeaf: 1, MinSplit: 2, FeatureFrac: 0.5})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Fit with FeatureFrac and nil RNG: err = %v, want ErrBadConfig", err)
	}
	if _, err := Fit(X, y, nil, Config{MaxDepth: 3, MinLeaf: 1, MinSplit: 2, FeatureFrac: 1.5, RNG: stats.NewRNG(1)}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Fit with FeatureFrac 1.5: err = %v, want ErrBadConfig", err)
	}
	// The boundary values 0 and 1 mean "no subsampling" and stay legal
	// without an RNG.
	if _, err := Fit(X, y, nil, Config{MaxDepth: 3, MinLeaf: 1, MinSplit: 2, FeatureFrac: 1}); err != nil {
		t.Fatalf("Fit with FeatureFrac 1: %v", err)
	}
}

// AppendSoA must reproduce the tree's traversal exactly: same leaf, bit-for-
// bit the same value, for several trees packed into one shared table.
func TestAppendSoAMatchesPredict(t *testing.T) {
	rng := stats.NewRNG(42)
	var s SoA
	type fitted struct {
		tr    *Regressor
		root  int32
		width int // columns of the tree's training set
	}
	var trees []fitted
	for k := 0; k < 5; k++ {
		n := 40 + rng.Intn(60)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = []float64{rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1)}
			y[i] = X[i][0]*2 - X[i][1] + rng.Normal(0, 0.1)
		}
		tr, err := Fit(X, y, nil, Config{MaxDepth: 4, MinLeaf: 2, MinSplit: 4})
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, fitted{tr, tr.AppendSoA(&s), len(X[0])})
	}
	walk := func(x []float64, root int32) float64 {
		i := root
		for s.Feature[i] >= 0 {
			if x[s.Feature[i]] <= s.Threshold[i] {
				i = s.Left[i]
			} else {
				i = s.Right[i]
			}
		}
		return s.Value[i]
	}
	total := 0
	for _, f := range trees {
		total += f.tr.NumNodes()
		if mf := f.tr.MaxFeature(); mf >= f.width {
			t.Fatalf("MaxFeature %d >= training width %d", mf, f.width)
		}
		for i := 0; i < 50; i++ {
			x := []float64{rng.Normal(0, 2), rng.Normal(0, 2), rng.Normal(0, 2)}
			want := f.tr.Predict(x)
			if got := walk(x, f.root); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("SoA walk %v, tree Predict %v", got, want)
			}
		}
	}
	if len(s.Feature) != total {
		t.Fatalf("SoA holds %d nodes, trees total %d", len(s.Feature), total)
	}
}

// TestPresortOrderIsTotal: a feature's rows sort ascending by value with NaN
// after +Inf and ties (including -0 against +0, and NaN against NaN) in row
// order — an order on every float, which `<` alone is not.
func TestPresortOrderIsTotal(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	col := []float64{nan, 1, inf, -inf, 1, math.Copysign(0, -1), 0, nan, 0.5, -2, inf}
	X := make([][]float64, len(col))
	for i, v := range col {
		X[i] = []float64{v}
	}
	p, err := Presort(X)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{3, 9, 5, 6, 8, 1, 4, 2, 10, 0, 7}
	if !reflect.DeepEqual(p.order, want) {
		t.Fatalf("row order %v, want %v", p.order, want)
	}
}

// TestFitWithNaNAndInfCells: wire admits NaN and ±Inf features and they reach
// the fit. Such a matrix must fit to the same tree every time, place only
// finite thresholds, and put each training row in the leaf Predict finds for
// it (NaN and +Inf right, -Inf left).
func TestFitWithNaNAndInfCells(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := stats.NewRNG(seed)
		n, d := 40+rng.Intn(200), 2+rng.Intn(5)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for j := range X[i] {
				switch u := rng.Float64(); {
				case j == d-1 || u < 0.10: // the last column is all NaN
					X[i][j] = math.NaN()
				case u < 0.15:
					X[i][j] = math.Inf(1)
				case u < 0.20:
					X[i][j] = math.Inf(-1)
				case u < 0.25:
					X[i][j] = math.MaxFloat64 // midpoints with it overflow
				default:
					X[i][j] = math.Floor(rng.Normal(0, 3))
				}
			}
			y[i] = rng.Normal(0, 1)
			if v := X[i][0]; v == v {
				y[i] += math.Max(-5, math.Min(5, v))
			}
		}
		cfg := Config{MaxDepth: 6, MinLeaf: 2, MinSplit: 4}
		p, err := Presort(X)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Grow(y, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, leaf := range p.Leaves() {
			if got := leafIndex(a, X[i]); got != int(leaf) {
				t.Fatalf("seed %d: row %d grown into leaf %d, Predict walks to leaf %d", seed, i, leaf, got)
			}
		}
		b, err := Fit(X, y, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two fits of one matrix differ", seed)
		}
		if a.NumNodes() < 3 {
			t.Fatalf("seed %d: no split found among the finite cells", seed)
		}
		for _, nd := range a.nodes {
			if nd.feature >= 0 && (math.IsNaN(nd.threshold) || math.IsInf(nd.threshold, 0)) {
				t.Fatalf("seed %d: split on feature %d at threshold %v", seed, nd.feature, nd.threshold)
			}
		}
	}
}

// BenchmarkGrow times the split search at the shape NURD serves: a 110-row,
// 15-feature view (a mean checkpoint's finished tasks), gbt's tree config,
// and 50 rounds of fresh targets grown from one Presorted, as one
// FitRegressor does. An op is the 50 trees; ns/candidate divides the time by
// the (feature, cut) pairs the trees' nodes offer the split rule, those
// MinLeaf allows, so it prices one candidate without the presort that
// tree.fit_us_per_tree also pays.
func BenchmarkGrow(b *testing.B) {
	const n, d, rounds = 110, 15, 50
	cfg := Config{MaxDepth: 3, MinLeaf: 3, MinSplit: 6}
	rng := stats.NewRNG(7)
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.Normal(0, 1)
			if j%3 == 2 {
				X[i][j] = math.Floor(4 * rng.Float64()) // ties, as in the served counters
			}
		}
	}
	ys := make([][]float64, rounds)
	for r := range ys {
		ys[r] = make([]float64, n)
		for i, x := range X {
			ys[r][i] = math.Pow(0.9, float64(r))*(2*x[0]-x[1]+x[2]) + rng.Normal(0, 0.5)
		}
	}
	p, err := Presort(X)
	if err != nil {
		b.Fatal(err)
	}
	candidates := 0
	for _, y := range ys {
		t, err := p.Grow(y, nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		candidates += searchedCandidates(t, X, cfg)
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for _, y := range ys {
			if _, err := p.Grow(y, nil, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*candidates), "ns/candidate")
}

// searchedCandidates counts the (feature, cut) pairs that growing t on X
// offered the split rule: every node growth searched, a node at depth below
// MaxDepth with at least MinSplit rows, offers d·(m-2·MinLeaf+1).
func searchedCandidates(t *Regressor, X [][]float64, cfg Config) int {
	if err := cfg.normalize(); err != nil {
		panic(err)
	}
	rows, depth := make([]int, len(t.nodes)), make([]int, len(t.nodes))
	for _, x := range X {
		for i, dep := int32(0), 0; ; dep++ {
			rows[i], depth[i] = rows[i]+1, dep
			nd := t.nodes[i]
			if nd.feature < 0 {
				break
			}
			if x[nd.feature] <= nd.threshold {
				i = nd.left
			} else {
				i = nd.right
			}
		}
	}
	total := 0
	for i, m := range rows {
		if depth[i] < cfg.MaxDepth && m >= cfg.MinSplit {
			total += len(X[0]) * max(0, m-2*cfg.MinLeaf+1)
		}
	}
	return total
}

// depth returns the maximum depth of the tree (a lone leaf has depth 0).
func (t *Regressor) depth() int {
	var rec func(i int32) int
	rec = func(i int32) int {
		n := &t.nodes[i]
		if n.feature < 0 {
			return 0
		}
		l, r := rec(n.left), rec(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return rec(0)
}
