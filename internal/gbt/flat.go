package gbt

import (
	"errors"
	"fmt"
	"math"
)

// ErrRowWidth reports a feature row too narrow for the ensemble: some tree
// splits on a feature index the row does not have. Width-checked entry
// points (Model.CheckWidth, nurd.Model.Predict) return it instead of letting
// the traversal panic.
var ErrRowWidth = errors.New("gbt: row narrower than the ensemble's max split feature")

// CheckWidth returns ErrRowWidth (wrapped with the widths) when rows of n
// columns are too narrow to traverse the ensemble.
func (m *Model) CheckWidth(n int) error {
	if n < m.width {
		return fmt.Errorf("%w: %d columns, need at least %d", ErrRowWidth, n, m.width)
	}
	return nil
}

// Compile returns m: a fitted Model is already its flat node table, so there
// is nothing to compile. It is kept for the benchmark's gbt.compile_us probe
// (bench/layers.go) until that metric is renamed.
func (m *Model) Compile() *Model { return m }

// Traversal note. The walk selects children with sign-bit arithmetic
// instead of a compare-and-branch:
//
//	mask = sign(thr[i] - x[ft])  → 0 select left, -1 select right
//
// Split thresholds are branch-unpredictable by construction (they bisect
// the data), so the branching walk pays a pipeline flush at nearly every
// level; the arithmetic select turns that into a pure ~3-op data
// dependency and measures about 2x faster on batched prediction. It is
// exactly equivalent to `x[ft] <= thr → left` for every non-NaN input:
// thr is always finite and never -0.0 (thresholds are midpoints of two
// distinct training values, and tree's split finder places one only where
// that midpoint is finite — a training matrix may hold ±Inf and NaN cells,
// a fitted tree never holds such a threshold), so thr-x is +0.0 (left,
// matching <=) on equality, negative iff x > thr, and the correct infinity
// when x is ±Inf. A NaN feature walks an unspecified but deterministic
// child (the comparison form, which is also what the fit itself uses to
// place a NaN training cell, always goes right); both Model entry points
// share this step, so their results are self-consistent on any input. The
// fit side of NaN handling — a total presort order, NaN after +Inf — is
// documented on tree.Presorted.
func flatStep(thr float64, xf float64, l, r int32) int32 {
	mask := int32(int64(math.Float64bits(thr-xf)) >> 63) // 0 or -1
	return (l &^ mask) | (r & mask)
}

// Predict returns the ensemble's raw prediction for x. x must be wide
// enough for every split feature (see CheckWidth).
func (m *Model) Predict(x []float64) float64 {
	feat := m.nodes.Feature
	// Reslicing to len(feat) lets the compiler prove the per-node bounds
	// checks away after the feat[i] check.
	thr := m.nodes.Threshold[:len(feat)]
	val := m.nodes.Value[:len(feat)]
	left := m.nodes.Left[:len(feat)]
	right := m.nodes.Right[:len(feat)]
	out := m.Init
	for _, root := range m.roots {
		i := root
		for {
			ft := feat[i]
			if ft < 0 {
				break
			}
			i = flatStep(thr[i], x[ft], left[i], right[i])
		}
		out += m.LR * val[i]
	}
	return out
}

// PredictBatch predicts for each row of X. Equivalent to calling Predict
// per row (bit-identical) but walks task-major for cache locality.
func (m *Model) PredictBatch(X [][]float64) []float64 {
	return m.PredictBatchInto(X, nil)
}

// PredictBatchInto is PredictBatch with a caller-owned scratch buffer: out
// is reused when its capacity allows (contents are overwritten) and the
// resulting slice of len(X) predictions is returned. Pass the returned
// slice back in on the next call to keep the hot path allocation-free.
//
// The walk is task-major — every row advances through tree t before any row
// touches tree t+1 — but each row's accumulator still applies Init and the
// per-tree LR*leaf terms in tree order, so results are bit-identical to
// Predict.
func (m *Model) PredictBatchInto(X [][]float64, out []float64) []float64 {
	if cap(out) < len(X) {
		out = make([]float64, len(X))
	} else {
		out = out[:len(X)]
	}
	for i := range out {
		out[i] = m.Init
	}
	feat := m.nodes.Feature
	thr := m.nodes.Threshold[:len(feat)]
	val := m.nodes.Value[:len(feat)]
	left := m.nodes.Left[:len(feat)]
	right := m.nodes.Right[:len(feat)]
	for _, root := range m.roots {
		for r, x := range X {
			i := root
			for {
				ft := feat[i]
				if ft < 0 {
					break
				}
				i = flatStep(thr[i], x[ft], left[i], right[i])
			}
			out[r] += m.LR * val[i]
		}
	}
	return out
}

// PredictProb maps the raw output through the logistic function; it is only
// meaningful for ensembles fitted with FitClassifier.
func (m *Model) PredictProb(x []float64) float64 {
	return sigmoid(m.Predict(x))
}
