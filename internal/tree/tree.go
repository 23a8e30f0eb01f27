// Package tree implements CART-style regression trees used as the base
// learner for gradient boosting (package gbt). Splits minimize within-node
// squared error; growth is bounded by depth and minimum leaf size. Split
// finding is the exact greedy algorithm over presorted features: Presort
// sorts each feature of a training matrix once, and any number of trees
// grow from that order without sorting again (see Presorted).
//
// A tree is not a pointer-chasing structure: Grow appends its nodes to a
// caller's SoA, a struct-of-arrays node table whose child links are absolute
// int32 indices into the same table, and returns the root's index. gbt grows
// every tree of an ensemble into one such table, and that table is the
// fitted gbt.Model: it predicts by walking it, with no second copy.
package tree

import (
	"errors"
	"fmt"
)

// ErrRaggedRows reports a training matrix whose rows differ in width,
// errors.Is-matchable through every wrapping layer. Without this check a
// short row panics with index-out-of-range deep inside split scanning —
// possibly on a background refit worker.
var ErrRaggedRows = errors.New("tree: ragged training rows")

// Config controls tree growth. Every split considers every feature, and
// every row weighs the same.
type Config struct {
	// MaxDepth bounds tree depth (a lone leaf has depth 0). Zero or negative
	// selects the default of 3, so a single-leaf tree cannot be requested
	// here; growth stops early on MinSplit/MinLeaf instead.
	MaxDepth int
	// MinLeaf is the minimum number of samples in each leaf.
	MinLeaf int
	// MinSplit is the minimum number of samples required to attempt a split.
	MinSplit int
}

func (c *Config) normalize() {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.MinSplit < 2*c.MinLeaf {
		c.MinSplit = 2 * c.MinLeaf
	}
}

// Fit grows a regression tree on X, y and returns it as a one-tree table,
// its root at 0. It returns an error for empty or mismatched input, and
// ErrRaggedRows when rows differ in width. Rows are unweighted: w must be
// nil (the parameter stays for bench/layers.go, which passes nil). Fit is
// Presort followed by one Grow; callers growing many trees on one matrix
// (gbt's boosting rounds) presort once themselves.
func Fit(X [][]float64, y []float64, w []float64, cfg Config) (*SoA, error) {
	if w != nil {
		return nil, fmt.Errorf("tree: per-row weights are not supported")
	}
	p, err := Presort(X)
	if err != nil {
		return nil, err
	}
	s := new(SoA).WithRoom(cfg.NodeBound(len(X)))
	if _, err := p.Grow(&s, y, cfg); err != nil {
		return nil, err
	}
	return &s, nil
}

// SoA is a struct-of-arrays node table: parallel slices with one entry per
// node, leaves marked by Feature < 0 with the prediction in Value. Child
// indices are absolute positions in the same table, so many trees share one
// table, each delimited by the root index Grow returned for it. A tree's
// nodes are contiguous and numbered in preorder from its root; its leaves'
// children are 0 and never read.
type SoA struct {
	Feature   []int32
	Threshold []float64
	Value     []float64
	Left      []int32
	Right     []int32
}

// WithRoom returns a copy of s whose arrays take n more nodes before an
// append reallocates; s itself is not modified.
func (s *SoA) WithRoom(n int) SoA {
	return SoA{
		Feature:   withRoom(s.Feature, n),
		Threshold: withRoom(s.Threshold, n),
		Value:     withRoom(s.Value, n),
		Left:      withRoom(s.Left, n),
		Right:     withRoom(s.Right, n),
	}
}

func withRoom[T any](x []T, n int) []T { return append(make([]T, 0, len(x)+n), x...) }

// appendLeaf appends a leaf predicting value and returns its index.
func (s *SoA) appendLeaf(value float64) int32 {
	id := int32(len(s.Feature))
	s.Feature = append(s.Feature, -1)
	s.Threshold = append(s.Threshold, 0)
	s.Value = append(s.Value, value)
	s.Left = append(s.Left, 0)
	s.Right = append(s.Right, 0)
	return id
}

// NodeBound is the most nodes one Grow on n rows under c appends: at most
// 2n-1 (every leaf holds a row) and at most 2^(MaxDepth+1)-1. Sizing a table
// for it keeps a fit's allocation count independent of how many nodes its
// trees grow.
func (c Config) NodeBound(n int) int {
	c.normalize()
	most := 2*n - 1
	if c.MaxDepth < 30 && 1<<(c.MaxDepth+1)-1 < most {
		most = 1<<(c.MaxDepth+1) - 1
	}
	return most
}
