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
	if got := tr.predict([]float64{2.5}); got != 5 {
		t.Fatalf("constant prediction %v, want 5", got)
	}
	if len(tr.Feature) != 1 {
		t.Fatalf("constant tree should be a single leaf, has %d nodes", len(tr.Feature))
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
	if got := tr.predict([]float64{1}); math.Abs(got) > 1e-9 {
		t.Fatalf("left prediction %v, want 0", got)
	}
	if got := tr.predict([]float64{9}); math.Abs(got-10) > 1e-9 {
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
	if tr.predict([]float64{0, 0.9}) < 0.5 {
		t.Fatal("tree failed to split on the informative feature")
	}
	if tr.predict([]float64{0, 0.1}) > -0.5 {
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
	for _, f := range tr.Feature {
		if f < 0 {
			leaves++
		}
	}
	if leaves > 5 {
		t.Fatalf("%d leaves violate MinLeaf=20 over n=100", leaves)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, nil, smallConfig); err == nil {
		t.Fatal("expected error on empty input")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, nil, smallConfig); err == nil {
		t.Fatal("expected error on length mismatch")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, []float64{1}, smallConfig); err == nil {
		t.Fatal("expected error on per-row weights, which trees do not take")
	}
}

// leaf walks x down the tree rooted at root with the branching comparison
// the grower splits rows by, and returns the index of the leaf it lands in.
func (s *SoA) leaf(root int32, x []float64) int32 {
	i := root
	for s.Feature[i] >= 0 {
		if x[s.Feature[i]] <= s.Threshold[i] {
			i = s.Left[i]
		} else {
			i = s.Right[i]
		}
	}
	return i
}

// predict is the prediction for x of the one-tree table Fit returns.
func (s *SoA) predict(x []float64) float64 { return s.Value[s.leaf(0, x)] }

// leafIndex walks x down the one-tree table t and returns the ordinal (in
// node order) of the leaf it lands in: the oracle for Presorted.Leaves.
func leafIndex(t *SoA, x []float64) int {
	leaf := 0
	for _, f := range t.Feature[:t.leaf(0, x)] {
		if f < 0 {
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
	// Tag each leaf with its ordinal in node order, as gbt's Newton step
	// assigns leaf values, then check leafIndex agrees with the value found by
	// the walk.
	leaf := 0.0
	for i, f := range tr.Feature {
		if f < 0 {
			tr.Value[i] = leaf
			leaf++
		}
	}
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if got, want := leafIndex(tr, x), int(tr.predict(x)); got != want {
			t.Fatalf("LeafIndex %d != tagged leaf %d", got, want)
		}
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
			p := tr.predict([]float64{rng.Normal(0, 3), rng.Normal(0, 3)})
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

// Trees grown one after another into one shared table must each walk
// exactly as the same tree grown alone: the same nodes, their child indices
// shifted by the root, and bit-for-bit the same value at every leaf. A table
// sized by NodeBound takes every tree without reallocating.
func TestGrowAppendsToSharedTable(t *testing.T) {
	rng := stats.NewRNG(42)
	cfg := Config{MaxDepth: 4, MinLeaf: 2, MinSplit: 4}
	const trees = 5
	s := new(SoA).WithRoom(trees * cfg.NodeBound(99))
	feature := &s.Feature[:1][0]
	for k := 0; k < trees; k++ {
		n := 40 + rng.Intn(60)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = []float64{rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1)}
			y[i] = X[i][0]*2 - X[i][1] + rng.Normal(0, 0.1)
		}
		alone, err := Fit(X, y, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Presort(X)
		if err != nil {
			t.Fatal(err)
		}
		root, err := p.Grow(&s, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if int(root)+len(alone.Feature) != len(s.Feature) {
			t.Fatalf("tree %d: root %d and %d nodes, table holds %d", k, root, len(alone.Feature), len(s.Feature))
		}
		for i := range alone.Feature {
			at := root + int32(i)
			if s.Feature[at] != alone.Feature[i] || s.Threshold[at] != alone.Threshold[i] ||
				s.Feature[at] >= 0 && (s.Left[at] != alone.Left[i]+root || s.Right[at] != alone.Right[i]+root) {
				t.Fatalf("tree %d node %d differs from the tree grown alone", k, i)
			}
		}
		for i := 0; i < 50; i++ {
			x := []float64{rng.Normal(0, 2), rng.Normal(0, 2), rng.Normal(0, 2)}
			want := alone.predict(x)
			if got := s.Value[s.leaf(root, x)]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("tree %d: shared-table walk %v, alone %v", k, got, want)
			}
		}
	}
	if &s.Feature[0] != feature {
		t.Fatal("the table reallocated within its NodeBound room")
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
// finite thresholds, and put each training row in the leaf the branching walk
// finds for it (NaN and +Inf right, -Inf left).
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
		var a SoA
		if _, err := p.Grow(&a, y, cfg); err != nil {
			t.Fatal(err)
		}
		for i, leaf := range p.Leaves() {
			if got := leafIndex(&a, X[i]); got != int(leaf) {
				t.Fatalf("seed %d: row %d grown into leaf %d, the walk reaches leaf %d", seed, i, leaf, got)
			}
		}
		b, err := Fit(X, y, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&a, b) {
			t.Fatalf("seed %d: two fits of one matrix differ", seed)
		}
		if len(a.Feature) < 3 {
			t.Fatalf("seed %d: no split found among the finite cells", seed)
		}
		for i, f := range a.Feature {
			if thr := a.Threshold[i]; f >= 0 && (math.IsNaN(thr) || math.IsInf(thr, 0)) {
				t.Fatalf("seed %d: split on feature %d at threshold %v", seed, f, thr)
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
		var t SoA
		if _, err := p.Grow(&t, y, cfg); err != nil {
			b.Fatal(err)
		}
		candidates += searchedCandidates(&t, X, cfg)
	}
	// One table with room for an op's trees, emptied before each op, as a
	// fitted model's table is sized once for its rounds.
	s := new(SoA).WithRoom(rounds * cfg.NodeBound(n))
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		s = SoA{s.Feature[:0], s.Threshold[:0], s.Value[:0], s.Left[:0], s.Right[:0]}
		for _, y := range ys {
			if _, err := p.Grow(&s, y, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*candidates), "ns/candidate")
}

// searchedCandidates counts the (feature, cut) pairs that growing t on X
// offered the split rule: every node growth searched, a node at depth below
// MaxDepth with at least MinSplit rows, offers d·(m-2·MinLeaf+1).
func searchedCandidates(t *SoA, X [][]float64, cfg Config) int {
	cfg.normalize()
	rows, depth := make([]int, len(t.Feature)), make([]int, len(t.Feature))
	for _, x := range X {
		for i, dep := int32(0), 0; ; dep++ {
			rows[i], depth[i] = rows[i]+1, dep
			if t.Feature[i] < 0 {
				break
			}
			if x[t.Feature[i]] <= t.Threshold[i] {
				i = t.Left[i]
			} else {
				i = t.Right[i]
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

// depth returns the maximum depth of the one-tree table (a lone leaf has
// depth 0).
func (t *SoA) depth() int {
	var rec func(i int32) int
	rec = func(i int32) int {
		if t.Feature[i] < 0 {
			return 0
		}
		return 1 + max(rec(t.Left[i]), rec(t.Right[i]))
	}
	return rec(0)
}
