// Package gbt implements gradient-boosted regression trees with pluggable
// second-order (Newton) losses. Three losses are provided:
//
//   - squared error, used for the GBTR baseline and NURD's latency model h_t
//     (Chen & Guestrin 2016 in spirit, exact greedy splits);
//   - logistic loss, used for binary classifiers (XGBOD's meta-learner and an
//     optional propensity-score model);
//   - Tobit loss with right-censoring, the Grabit model of Sigrist &
//     Hirnschall (2019).
//
// Trees are grown on negative gradients; leaf values are then replaced by
// Newton steps -G/(H+lambda), which reduces to the mean residual for squared
// loss.
//
// A fitted Model is one flat node table: every round's tree grows straight
// into the model's struct-of-arrays table (tree.SoA), and predictions walk
// that table, task-major over a batch, with a branch-free child select.
// There is no per-tree object and no compile step, so a model exists once.
package gbt

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/stats"
	"repro/internal/tree"
)

// Config controls boosting.
type Config struct {
	// NumTrees is the number of boosting rounds.
	NumTrees int
	// LearningRate shrinks each tree's contribution.
	LearningRate float64
	// Lambda is the L2 regularization added to leaf Hessians.
	Lambda float64
	// Tree holds the base-learner growth parameters.
	Tree tree.Config
	// Seed is read by nothing: a boosted fit draws no random numbers. It
	// stays only because bench/layers.go still sets it.
	Seed uint64
}

// defaultTree is the base learner's growth: DefaultConfig's, and what
// normalize substitutes for an unset Tree.
var defaultTree = tree.Config{MaxDepth: 3, MinLeaf: 3, MinSplit: 6}

// DefaultConfig returns the boosting parameters used across the evaluation
// (small trees, moderate shrinkage — tuned once as in paper §6).
func DefaultConfig() Config {
	return Config{
		NumTrees:     50,
		LearningRate: 0.1,
		Lambda:       1.0,
		Tree:         defaultTree,
	}
}

func (c *Config) normalize() {
	if c.NumTrees <= 0 {
		c.NumTrees = 50
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.Lambda < 0 {
		c.Lambda = 0
	}
	if c.Tree.MaxDepth <= 0 {
		c.Tree = defaultTree
	}
}

// Model is a fitted boosted ensemble. Raw output is
// Init + LR * sum_i tree_i(x), summed in tree order; interpretation (latency,
// log-odds) depends on the loss used at fit time. Every tree's nodes live in
// one contiguous node table, delimited by per-tree root offsets, so a
// predict walk touches five flat arrays (see Predict).
//
// A Model is immutable once a fitter returns it, and safe for concurrent
// use: Extend copies the table before it appends.
type Model struct {
	Init float64
	LR   float64
	// Logistic records whether the raw output is a log-odds score.
	Logistic bool

	nodes tree.SoA
	roots []int32 // root node index of each tree, in boosting order
	width int     // columns a row needs: 1 + the largest split feature, 0 with no split
}

// NumTrees reports how many trees the ensemble holds.
func (m *Model) NumTrees() int { return len(m.roots) }

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// lossFuncs supplies per-sample gradient and Hessian of the loss at the
// current predictions f.
type lossFuncs func(f []float64, g, h []float64)

// fitNewton runs the shared boosting loop.
func fitNewton(X [][]float64, init float64, loss lossFuncs, cfg Config) (*Model, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("gbt: empty training set")
	}
	cfg.normalize()
	m := &Model{Init: init, LR: cfg.LearningRate}
	start := func(f []float64) {
		for i := range f {
			f[i] = init
		}
	}
	if err := boostRounds(m, X, start, loss, cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// fitScratch is the working memory of one boosting fit: the presorted
// matrix, and per row the predictions, gradients, Hessians and negated
// gradients, and per leaf the gradient and Hessian sums. A fit borrows one
// from fitPool and returns it, so a fit allocates the model it publishes and
// nothing per row once the pool holds a scratch as large as its matrix, and
// no model keeps a fit's working memory after the fit.
type fitScratch struct {
	sorted        tree.Presorted
	f, g, h, negG []float64
	leafG, leafH  []float64
}

var fitPool = sync.Pool{New: func() any { return new(fitScratch) }}

// boostRounds appends cfg.NumTrees Newton-boosted trees to m. start fills the
// per-row predictions the first round starts from (the rounds then advance
// them in place). The loop is shared by the scratch fitters and Model.Extend;
// cfg.LearningRate must equal m.LR, since the ensemble applies one shrinkage
// factor to every tree.
//
// m's node table and roots are first copied into arrays with room for every
// round (tree.Config.NodeBound nodes per tree), so the rounds append without
// reallocating and arrays m shares with another model are never written.
//
// X does not change between rounds, only the targets do, so its columns are
// sorted once (tree.Presorted.Reset) and every round grows from that order.
func boostRounds(m *Model, X [][]float64, start func(f []float64), loss lossFuncs, cfg Config) error {
	s := fitPool.Get().(*fitScratch)
	defer fitPool.Put(s)
	if err := s.sorted.Reset(X); err != nil {
		return err
	}
	// Per row, and per leaf (a tree on n rows has at most n); leafG ends a
	// round holding the leaf's value.
	for _, buf := range []*[]float64{&s.f, &s.g, &s.h, &s.negG, &s.leafG, &s.leafH} {
		*buf = slices.Grow((*buf)[:0], len(X))[:len(X)]
	}
	f, g, h, negG, leafG, leafH := s.f, s.g, s.h, s.negG, s.leafG, s.leafH
	start(f)
	leaves := s.sorted.Leaves() // per row: ordinal of its leaf in the round's tree
	m.nodes = m.nodes.WithRoom(cfg.NumTrees * cfg.Tree.NodeBound(len(X)))
	m.roots = append(make([]int32, 0, len(m.roots)+cfg.NumTrees), m.roots...)
	for round := 0; round < cfg.NumTrees; round++ {
		loss(f, g, h)
		for i := range g {
			negG[i] = -g[i]
		}
		root, err := s.sorted.Grow(&m.nodes, negG, cfg.Tree)
		if err != nil {
			return err
		}
		// Newton leaf refit over the FULL data: value_j = -G_j/(H_j+lambda),
		// G and H summed in ascending row order. Leaf j is the tree's j-th
		// leaf in node order, which is how Leaves numbers them.
		clear(leafG)
		clear(leafH)
		for i, leaf := range leaves {
			leafG[leaf] += g[i]
			leafH[leaf] += h[i]
		}
		value, leaf := m.nodes.Value[root:], 0
		for k, ft := range m.nodes.Feature[root:] {
			if ft >= 0 {
				m.width = max(m.width, int(ft)+1)
				continue
			}
			v := -leafG[leaf] / (leafH[leaf] + cfg.Lambda)
			if leafH[leaf]+cfg.Lambda <= 0 {
				v = 0
			}
			leafG[leaf], value[k] = v, v
			leaf++
		}
		for i, leaf := range leaves {
			f[i] += cfg.LearningRate * leafG[leaf]
		}
		m.roots = append(m.roots, root)
	}
	return nil
}

// Extend continues boosting from an existing squared-error ensemble: it fits
// `rounds` additional trees against the residuals of m's predictions on the
// (possibly updated) training set and returns a new Model whose node table is
// a copy of m's, sized once for the new rounds, with their trees appended —
// m itself is never mutated, so published ensembles stay immutable while
// their successors are trained. Extending by zero rounds returns an
// equivalent model that shares m's (immutable) arrays. The result is a
// function of the previous model, the data and cfg alone: a boosted fit
// draws no random numbers, so no seed enters it.
//
// Extend is the warm-start primitive behind incremental checkpoint refits
// (nurd.Model.Refit): refitting 10-20 rounds on top of the previous
// checkpoint's ensemble costs a fraction of a full scratch fit while tracking
// the drifting training distribution. Callers enforce their own tree budget
// by choosing rounds (or falling back to a scratch fit when
// m.NumTrees()+rounds would exceed it). Logistic-loss ensembles are refused:
// their leaf values are log-odds steps and squared-error residual boosting
// would corrupt them.
func (m *Model) Extend(X [][]float64, y []float64, rounds int, cfg Config) (*Model, error) {
	if m.Logistic {
		return nil, fmt.Errorf("gbt: Extend supports squared-error ensembles only")
	}
	if rounds < 0 {
		return nil, fmt.Errorf("gbt: negative extension of %d rounds", rounds)
	}
	if len(y) != len(X) {
		return nil, fmt.Errorf("gbt: %d targets for %d rows", len(y), len(X))
	}
	out := &Model{Init: m.Init, LR: m.LR, nodes: m.nodes, roots: m.roots, width: m.width}
	if rounds == 0 {
		return out, nil
	}
	if len(X) == 0 {
		return nil, fmt.Errorf("gbt: empty training set")
	}
	cfg.normalize()
	if out.LR <= 0 {
		out.LR = cfg.LearningRate
	}
	cfg.LearningRate = out.LR // one shrinkage factor across old and new trees
	cfg.NumTrees = rounds
	// The initial residual pass predicts every training row through the
	// inherited ensemble, task-major — the dominant cost of a warm refit.
	// Rows are width-checked first: the pass indexes each row at the
	// ensemble's split features.
	for i, x := range X {
		if err := m.CheckWidth(len(x)); err != nil {
			return nil, fmt.Errorf("gbt: Extend row %d: %w", i, err)
		}
	}
	start := func(f []float64) { m.PredictBatchInto(X, f) }
	loss := func(f []float64, g, h []float64) {
		for i := range f {
			g[i] = f[i] - y[i]
			h[i] = 1
		}
	}
	if err := boostRounds(out, X, start, loss, cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// FitRegressor fits a squared-loss boosted regressor (the GBTR baseline).
func FitRegressor(X [][]float64, y []float64, cfg Config) (*Model, error) {
	if len(y) != len(X) {
		return nil, fmt.Errorf("gbt: %d targets for %d rows", len(y), len(X))
	}
	init := stats.Mean(y)
	loss := func(f []float64, g, h []float64) {
		for i := range f {
			g[i] = f[i] - y[i]
			h[i] = 1
		}
	}
	return fitNewton(X, init, loss, cfg)
}

// FitClassifier fits a logistic-loss boosted classifier. y must be 0/1.
func FitClassifier(X [][]float64, y []float64, cfg Config) (*Model, error) {
	if len(y) != len(X) {
		return nil, fmt.Errorf("gbt: %d targets for %d rows", len(y), len(X))
	}
	pos := 0.0
	for _, v := range y {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("gbt: classifier target must be 0/1, got %v", v)
		}
		pos += v
	}
	p := (pos + 1) / (float64(len(y)) + 2) // Laplace-smoothed base rate
	init := math.Log(p / (1 - p))
	loss := func(f []float64, g, h []float64) {
		for i := range f {
			pi := sigmoid(f[i])
			g[i] = pi - y[i]
			h[i] = math.Max(pi*(1-pi), 1e-6)
		}
	}
	m, err := fitNewton(X, init, loss, cfg)
	if err != nil {
		return nil, err
	}
	m.Logistic = true
	return m, nil
}

// FitTobit fits the Grabit model: gradient-boosted trees under a censored
// Gaussian (Tobit) likelihood. censored[i] marks right-censored rows, whose
// y[i] is the censoring point (the latency observed so far), not the true
// value. sigma is the Gaussian noise scale; pass 0 to estimate it from the
// uncensored residual spread around the mean.
func FitTobit(X [][]float64, y []float64, censored []bool, sigma float64, cfg Config) (*Model, error) {
	if len(y) != len(X) || len(censored) != len(X) {
		return nil, fmt.Errorf("gbt: tobit shape mismatch (%d rows, %d targets, %d flags)",
			len(X), len(y), len(censored))
	}
	var unc []float64
	for i, c := range censored {
		if !c {
			unc = append(unc, y[i])
		}
	}
	if len(unc) == 0 {
		return nil, fmt.Errorf("gbt: tobit requires at least one uncensored row")
	}
	// Standardize targets so the loss Hessians are O(1) and the leaf
	// regularizer Lambda acts at a scale-free magnitude; predictions are
	// mapped back to the original scale after fitting.
	shift := stats.Mean(unc)
	spread := stats.StdDev(unc)
	if spread <= 0 {
		spread = 1
	}
	ys := make([]float64, len(y))
	for i, v := range y {
		ys[i] = (v - shift) / spread
	}
	if sigma <= 0 {
		sigma = 1 // std of standardized uncensored targets
	} else {
		sigma /= spread
	}
	s2 := sigma * sigma
	loss := func(f []float64, g, h []float64) {
		for i := range f {
			if !censored[i] {
				g[i] = (f[i] - ys[i]) / s2
				h[i] = 1 / s2
				continue
			}
			// Right-censored at c=ys[i]: nll = -log(1 - Phi((c-f)/sigma)).
			z := (ys[i] - f[i]) / sigma
			lam := hazard(z)
			g[i] = -lam / sigma
			hh := lam * (lam - z) / s2
			if hh < 1e-9 {
				hh = 1e-9
			}
			h[i] = hh
		}
	}
	m, err := fitNewton(X, 0, loss, cfg)
	if err != nil {
		return nil, err
	}
	// Map the ensemble back to the original target scale.
	m.Init = m.Init*spread + shift
	for i, ft := range m.nodes.Feature {
		if ft < 0 {
			m.nodes.Value[i] *= spread
		}
	}
	return m, nil
}

// hazard returns phi(z)/(1-Phi(z)) with care at the tails (the inverse Mills
// ratio of -z).
func hazard(z float64) float64 {
	if z > 8 {
		// Asymptotic: lambda(z) ~ z for large z.
		return z
	}
	denom := 1 - stats.NormalCDF(z)
	if denom < 1e-300 {
		return z
	}
	return stats.NormalPDF(z) / denom
}
