// Package tree implements CART-style regression trees used as the base
// learner for gradient boosting (package gbt). Splits minimize within-node
// squared error; growth is bounded by depth and minimum leaf size. Split
// finding is the exact greedy algorithm over presorted features: Presort
// sorts each feature of a training matrix once, and any number of trees
// grow from that order without sorting again (see Presorted).
//
// A fitted Regressor is not a pointer-chasing structure: nodes live in a
// single index-based slice (children are int32 indices into it), so a
// predict walk touches one contiguous allocation. AppendSoA exposes that
// table as parallel struct-of-arrays slices, which is how gbt compiles a
// whole fitted ensemble into one contiguous flat node table (gbt.Flat) for
// cache-friendly batched inference.
package tree

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// Typed fit errors, errors.Is-matchable through every wrapping layer.
var (
	// ErrRaggedRows reports a training matrix whose rows differ in width.
	// Without this check a short row panics with index-out-of-range deep
	// inside split scanning — possibly on a background refit worker.
	ErrRaggedRows = errors.New("tree: ragged training rows")
	// ErrBadConfig reports a Config that cannot drive growth (for example
	// feature subsampling requested without an RNG).
	ErrBadConfig = errors.New("tree: invalid config")
)

// Config controls tree growth.
type Config struct {
	// MaxDepth bounds tree depth (a lone leaf has depth 0). Zero or negative
	// selects the default of 3, so a single-leaf tree cannot be requested
	// here; growth stops early on MinSplit/MinLeaf instead.
	MaxDepth int
	// MinLeaf is the minimum number of samples in each leaf.
	MinLeaf int
	// MinSplit is the minimum number of samples required to attempt a split.
	MinSplit int
	// FeatureFrac, if in (0,1), considers a random subset of features at each
	// split (column subsampling). Requires RNG.
	FeatureFrac float64
	// RNG drives feature subsampling; may be nil when FeatureFrac is 0 or 1.
	RNG *stats.RNG
}

func (c *Config) normalize() error {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.MinSplit < 2*c.MinLeaf {
		c.MinSplit = 2 * c.MinLeaf
	}
	if c.FeatureFrac < 0 || c.FeatureFrac > 1 {
		return fmt.Errorf("%w: FeatureFrac %v outside [0, 1]", ErrBadConfig, c.FeatureFrac)
	}
	if c.FeatureFrac > 0 && c.FeatureFrac < 1 && c.RNG == nil {
		return fmt.Errorf("%w: FeatureFrac %v requires an RNG", ErrBadConfig, c.FeatureFrac)
	}
	return nil
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64
	value     float64 // leaf prediction
	left      int32   // child indices into Regressor.nodes
	right     int32
}

// Regressor is a fitted regression tree.
type Regressor struct {
	nodes []node
}

// Fit grows a regression tree on X, y (optionally with per-sample weights;
// pass nil for uniform). It returns an error for empty or mismatched input:
// ErrRaggedRows when rows differ in width, ErrBadConfig when cfg cannot
// drive growth. Fit is Presort followed by one Grow; callers growing many
// trees on one matrix (gbt's boosting rounds) presort once themselves.
func Fit(X [][]float64, y []float64, w []float64, cfg Config) (*Regressor, error) {
	p, err := Presort(X)
	if err != nil {
		return nil, err
	}
	return p.Grow(y, w, cfg)
}

// Predict returns the tree's prediction for x. It is the branching
// reference walk: programs predict through gbt.Flat, and tests compare the
// compiled walk against this one. x must have at least MaxFeature()+1
// columns (the training width always suffices); shorter rows are a caller
// bug. Width-checked entry points with typed errors live one layer up
// (gbt.Flat.CheckWidth, nurd.Model), keeping this innermost walk
// branch-light.
func (t *Regressor) Predict(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
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

// NumNodes reports the node count.
func (t *Regressor) NumNodes() int { return len(t.nodes) }

// MaxFeature returns the largest feature index any node splits on, or -1
// for a tree with no splits. Rows at least MaxFeature()+1 wide are safe to
// Predict even if narrower than the training width.
func (t *Regressor) MaxFeature() int {
	max := -1
	for i := range t.nodes {
		if f := t.nodes[i].feature; f > max {
			max = f
		}
	}
	return max
}

// SoA is a struct-of-arrays node table: parallel slices with one entry per
// node, leaves marked by Feature < 0 with the prediction in Value. Child
// indices are absolute positions in the same table, so many trees can share
// one contiguous SoA with per-tree root offsets — gbt.Flat compiles a whole
// fitted ensemble this way for cache-friendly batched traversal.
type SoA struct {
	Feature   []int32
	Threshold []float64
	Value     []float64
	Left      []int32
	Right     []int32
}

// AppendSoA appends the tree's node table to s, rebasing child indices to
// their absolute positions in the destination, and returns the index of the
// appended root. Traversal from that root visits exactly the same nodes in
// the same order as Predict, so compiled predictions are bit-identical.
func (t *Regressor) AppendSoA(s *SoA) int32 {
	base := int32(len(s.Feature))
	for i := range t.nodes {
		n := &t.nodes[i]
		s.Feature = append(s.Feature, int32(n.feature))
		s.Threshold = append(s.Threshold, n.threshold)
		s.Value = append(s.Value, n.value)
		// Leaves keep zero children; rebased they point at the tree's own
		// root, but Feature < 0 stops the walk before they are read.
		s.Left = append(s.Left, n.left+base)
		s.Right = append(s.Right, n.right+base)
	}
	return base
}

// AdjustLeaves replaces each leaf value with fn(leafIndex, currentValue).
// Gradient boosting with non-squared losses uses this to apply per-leaf
// Newton steps after growing the tree on gradients.
func (t *Regressor) AdjustLeaves(fn func(leaf int, value float64) float64) {
	leaf := 0
	for i := range t.nodes {
		if t.nodes[i].feature < 0 {
			t.nodes[i].value = fn(leaf, t.nodes[i].value)
			leaf++
		}
	}
}

// ScaleLeaves multiplies every leaf value by c (used to undo target
// standardization after boosting with a scale-sensitive loss).
func (t *Regressor) ScaleLeaves(c float64) {
	for i := range t.nodes {
		if t.nodes[i].feature < 0 {
			t.nodes[i].value *= c
		}
	}
}
