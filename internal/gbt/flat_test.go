package gbt

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tree"
)

// refNode is one node of a tree's own node slice: the layout each tree had
// before every tree grew into the model's one table, children indexed from
// the tree's root.
type refNode struct {
	feature          int32
	threshold, value float64
	left, right      int32
}

// refTrees cuts m's node table into one node slice per tree, child indices
// rebased to the tree's root.
func refTrees(m *Model) [][]refNode {
	trees := make([][]refNode, len(m.roots))
	for t, root := range m.roots {
		end := int32(len(m.nodes.Feature))
		if t+1 < len(m.roots) {
			end = m.roots[t+1]
		}
		nodes := make([]refNode, end-root)
		for i := range nodes {
			k := root + int32(i)
			nodes[i] = refNode{m.nodes.Feature[k], m.nodes.Threshold[k], m.nodes.Value[k], m.nodes.Left[k] - root, m.nodes.Right[k] - root}
		}
		trees[t] = nodes
	}
	return trees
}

// walkTree is the branching walk of one tree's node slice: x <= threshold
// goes left.
func walkTree(nodes []refNode, x []float64) float64 {
	i := int32(0)
	for {
		n := &nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// walkTrees is the per-tree reference walk the flat engine must reproduce:
// Init plus LR times each tree's branching prediction, summed in tree order.
func walkTrees(m *Model, x []float64) float64 {
	f := m.Init
	for _, t := range refTrees(m) {
		f += m.LR * walkTree(t, x)
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

// requireBitIdentical checks that the flat engine reproduces the per-tree
// path bit-for-bit on every row, through Predict, PredictBatch, and a
// scratch-reusing PredictBatchInto pass.
func requireBitIdentical(t *testing.T, m *Model, X [][]float64) {
	t.Helper()
	want := make([]float64, len(X))
	for i, x := range X {
		want[i] = walkTrees(m, x)
		if got := m.Predict(x); math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: flat Predict %v, per-tree %v", i, got, want[i])
		}
	}
	for i, got := range m.PredictBatch(X) {
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: flat PredictBatch %v, per-tree %v", i, got, want[i])
		}
	}
	scratch := make([]float64, 1) // force the grow-and-reuse path
	scratch = m.PredictBatchInto(X, scratch)
	scratch = m.PredictBatchInto(X, scratch) // reused buffer must be reset
	for i, got := range scratch {
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: flat PredictBatchInto %v, per-tree %v", i, got, want[i])
		}
	}
	if m.Logistic {
		for i, x := range X {
			if got, want := m.PredictProb(x), sigmoid(walkTrees(m, x)); math.Float64bits(got) != math.Float64bits(want) {
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

// Property: the flat engine's sign-bit walk is bit-identical to the per-tree
// branching path over randomized fitted models of every ensemble flavor the system ships —
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
		rng.Float64() // the retired column-subsampling coin, drawn so later draws stay put

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

// An ensemble with no splits (constant target) is leaf-only trees; it needs
// no column and any row width, even zero, passes CheckWidth.
func TestFlatConstantModel(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	y := []float64{7, 7, 7, 7, 7, 7}
	m, err := FitRegressor(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.width != 0 {
		t.Fatalf("split-free ensemble needs %d columns, want 0", m.width)
	}
	if err := m.CheckWidth(0); err != nil {
		t.Fatalf("CheckWidth(0) on split-free ensemble: %v", err)
	}
	if got := m.Predict(nil); math.Float64bits(got) != math.Float64bits(walkTrees(m, nil)) {
		t.Fatalf("flat %v, per-tree %v", got, walkTrees(m, nil))
	}
}

func TestFlatCheckWidth(t *testing.T) {
	X, y := makeRegressionData(200, 0.1, 3)
	m, err := FitRegressor(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.width == 0 {
		t.Fatal("expected at least one split")
	}
	if err := m.CheckWidth(m.width - 1); !errors.Is(err, ErrRowWidth) {
		t.Fatalf("CheckWidth(%d) = %v, want ErrRowWidth", m.width-1, err)
	}
	if err := m.CheckWidth(m.width); err != nil {
		t.Fatalf("CheckWidth(%d) = %v, want nil", m.width, err)
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

// A published model is immutable: extending it (a warm refit) leaves its
// predictions unchanged, and two extensions of one model share no array
// they write, so a second extension on other targets leaves the first's
// predictions unchanged too. The base's table has room for another tree
// (it is sized for NodeBound nodes per round), so an Extend by one round
// that appended in place would write the first extension's tree with the
// second's. Deep trees with large leaves leave that room.
func TestFlatImmutableAfterExtend(t *testing.T) {
	X, y := makeRegressionData(200, 0.2, 9)
	cfg := DefaultConfig()
	cfg.Tree = tree.Config{MaxDepth: 6, MinLeaf: 10, MinSplit: 20}
	m, err := FitRegressor(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if room := cap(m.nodes.Feature) - len(m.nodes.Feature); room < cfg.Tree.NodeBound(len(X)) {
		t.Fatalf("the base model's table has room for %d nodes, less than a tree: the check has gone vacuous", room)
	}
	before := m.PredictBatch(X)
	first, err := m.Extend(X, y, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstBefore := first.PredictBatch(X)
	y2 := make([]float64, len(y))
	for i := range y {
		y2[i] = -3 * y[i]
	}
	if _, err := m.Extend(X, y2, 1, cfg); err != nil {
		t.Fatal(err)
	}
	for i, got := range m.PredictBatch(X) {
		if math.Float64bits(got) != math.Float64bits(before[i]) {
			t.Fatalf("row %d: the base model's prediction changed after Extend", i)
		}
	}
	for i, got := range first.PredictBatch(X) {
		if math.Float64bits(got) != math.Float64bits(firstBefore[i]) {
			t.Fatalf("row %d: an extension's prediction changed after a second Extend of its base", i)
		}
	}
}

// benchPredictSetup fits a warm-grown ensemble (the shape serving carries
// after a run of Extend refits: 50 base rounds and 4 extensions of 8) over a
// realistic monitoring width, plus a batch of running-task rows to predict.
func benchPredictSetup(b *testing.B) (*Model, [][]float64) {
	b.Helper()
	const seed = 42
	rng := stats.NewRNG(seed)
	n, d := 1500, 15
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.Normal(0, 1)
		}
		y[i] = X[i][0]*3 + X[i][1] - 2*X[i][7] + rng.Normal(0, 0.2)
	}
	cfg := DefaultConfig()
	m, err := FitRegressor(X, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if m, err = m.Extend(X, y, 8, cfg); err != nil {
			b.Fatal(err)
		}
	}
	rows := make([][]float64, 512)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.Normal(0, 1)
		}
	}
	return m, rows
}

// BenchmarkPredictTree times the per-tree branching walk, Init + Σ LR·
// walkTree(x) in tree order, every row walking each tree's own node slice
// (refTrees, built before the timer): the reference the flat engine
// reproduces bit for bit, which no production code calls. Reports ns/row;
// CI gates BenchmarkPredictFlat against it as a same-run ratio (flat must be
// well under per-tree time — hardware-independent).
func BenchmarkPredictTree(b *testing.B) {
	m, rows := benchPredictSetup(b)
	trees := refTrees(m)
	out := make([]float64, len(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r, x := range rows {
			f := m.Init
			for _, t := range trees {
				f += m.LR * walkTree(t, x)
			}
			out[r] = f
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
	sink = out[0]
}

// BenchmarkPredictFlat is the production path: the same ensemble's one
// contiguous node table, batch walked task-major with a reused scratch
// buffer (exactly what nurd.Model.PredictBatch runs per checkpoint).
// Bit-identical outputs, fewer cache misses, no allocation.
func BenchmarkPredictFlat(b *testing.B) {
	m, rows := benchPredictSetup(b)
	var out []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = m.PredictBatchInto(rows, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
	sink = out[0]
}

// sink defeats dead-code elimination of benchmark predict loops.
var sink float64
