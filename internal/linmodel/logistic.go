// Package linmodel implements the linear models used by the reproduction:
// L2-regularized logistic regression (NURD's propensity-score estimator g_t
// and the PU-EN base classifier), a Pegasos-style linear SVM (Wrangler and
// PU-BG), and ridge regression (Tobit initialization and the PCA detector's
// helper solves).
package linmodel

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/vecmath"
)

// LogisticConfig controls logistic-regression training.
type LogisticConfig struct {
	// L2 is the ridge penalty on weights (not the intercept).
	L2 float64
	// LR is the initial gradient-descent step size.
	LR float64
	// Iters is the number of full-batch gradient steps.
	Iters int
	// Tol stops early when the gradient norm falls below it. At the defaults
	// it is a guard, not a schedule: counted over the benchmark corpus
	// (warm_ingest and scratch_ingest, propensity fits of ~110 rows x 15
	// columns) it stopped none of 4 500 fits — every one ran all Iters steps,
	// and the loss backtrack never fired, which is why FitLogisticFlat
	// evaluates the loss only on the steps where it cannot prove that.
	Tol float64
	// Balanced, when true, weights each class by n/(2*n_class) so a skewed
	// split does not dominate the intercept.
	Balanced bool
}

// DefaultLogisticConfig returns settings adequate for the low-dimensional
// feature spaces in the traces (d <= 15).
func DefaultLogisticConfig() LogisticConfig {
	return LogisticConfig{L2: 1e-3, LR: 0.5, Iters: 200, Tol: 1e-6}
}

// Logistic is a fitted logistic-regression model over standardized inputs.
type Logistic struct {
	W    []float64
	B    float64
	Mean []float64
	Std  []float64
}

// LogisticScratch holds the reusable buffers of a FitLogisticFlat caller;
// its zero value is ready to use. Not safe for concurrent use — each fitting
// caller (e.g. a nurd.Model refitting its propensity model) owns its own.
type LogisticScratch struct {
	z  []float64 // standardized training matrix, row-major
	sw []float64 // per-row sample weight
	e  []float64 // per-row logit, overwritten by the weighted residual
	gw []float64 // weight gradient

	// The AVX2 kernel's copies of z (see layoutAVX2).
	zc []float64 // column-major, rows padded to a multiple of 16
	zp []float64 // row-major, columns padded to a multiple of 16

	wPrev []float64 // the weights one step back, the far end of the certificate's chord

	// How the last fit's gradient steps settled the backtrack comparison
	// (steps stopped by Tol settle nothing and count nowhere).
	certified    int // the loss was not evaluated: a rise was ruled out
	computed     int // the loss was evaluated and compared as the reference does
	materialised int // computed steps that first had to evaluate the previous step's skipped loss
}

// grow returns buf resized to n elements, reallocating only when it is too
// small; the contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// FitLogistic trains P(y=1|x) with full-batch gradient descent with simple
// backtracking on the step size. y must be 0/1. Features are standardized
// internally; callers pass raw features.
func FitLogistic(X [][]float64, y []float64, cfg LogisticConfig) (*Logistic, error) {
	n := len(X)
	if n == 0 {
		return nil, fmt.Errorf("linmodel: empty training set")
	}
	if len(y) != n {
		return nil, fmt.Errorf("linmodel: %d labels for %d rows", len(y), n)
	}
	d := len(X[0])
	flat := make([]float64, 0, n*d)
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("linmodel: row %d has %d columns, row 0 has %d", i, len(row), d)
		}
		flat = append(flat, row...)
	}
	return FitLogisticFlat(flat, d, y, cfg, nil)
}

// FitLogisticFlat is FitLogistic over a row-major matrix: row i of the
// len(y) x d training set is X[i*d:(i+1)*d]. X is only read. The fit's
// working memory lives in scratch and is reused across calls, so a caller
// that refits repeatedly allocates only the returned model; scratch may be
// nil for a one-shot call.
//
// Each gradient step makes three passes over the standardized matrix: (A) the
// logits, (B) one Exp per row for the probability and the weighted residual,
// (C) the gradient. Every accumulator sees the same operations in the same
// order as a row-at-a-time loop, so the fitted bits do not depend on how the
// passes are blocked (reference_test.go keeps that loop as the oracle). Two
// kernels run them, chosen once at package init: on amd64 with AVX2 and FMA,
// kernel_amd64.s, four float64 lanes per instruction — A across rows of a
// column-major copy, B across rows with Exp's FMA branch copied lane for lane,
// C across columns of a padded row-major copy; everywhere else the Go loops
// below (logits, residuals, gradient).
//
// The loss is not part of a step. Its only use is the backtrack comparison
// "did it rise since the previous step", and a convexity certificate settles
// that without evaluating it on all but a handful of steps; see the comment
// at the certificate for the inequality and the rounding bound it is held to.
func FitLogisticFlat(X []float64, d int, y []float64, cfg LogisticConfig, scratch *LogisticScratch) (*Logistic, error) {
	n := len(y)
	if n == 0 {
		return nil, fmt.Errorf("linmodel: empty training set")
	}
	if d <= 0 {
		return nil, fmt.Errorf("linmodel: zero-width rows")
	}
	if len(X) != n*d {
		return nil, fmt.Errorf("linmodel: %d values for %d rows of %d columns", len(X), n, d)
	}
	// Not cfg.L2 < 0: NaN must fail too. The certificate below needs the
	// ridge term convex.
	if !(cfg.L2 >= 0) {
		return nil, fmt.Errorf("linmodel: L2 penalty %v is negative or NaN", cfg.L2)
	}
	n1 := 0.0
	for i, v := range y {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("linmodel: label %v of row %d is not 0 or 1", v, i)
		}
		n1 += v
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 200
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.5
	}
	if scratch == nil {
		scratch = &LogisticScratch{}
	}
	nf := float64(n)

	// Column statistics and the standardized copy, the operations of
	// vecmath.ColumnStats and vecmath.Standardize in their order.
	mean := make([]float64, d)
	std := make([]float64, d)
	for i := 0; i < n; i++ {
		row := X[i*d : i*d+d]
		for j := range mean {
			mean[j] += row[j]
		}
	}
	for j := range mean {
		mean[j] /= nf
	}
	for i := 0; i < n; i++ {
		row := X[i*d : i*d+d]
		for j := range std {
			dv := row[j] - mean[j]
			std[j] += dv * dv
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / nf)
		if std[j] == 0 {
			std[j] = 1
		}
	}
	scratch.z, scratch.sw = grow(scratch.z, n*d), grow(scratch.sw, n)
	scratch.e, scratch.gw = grow(scratch.e, n), grow(scratch.gw, d)
	scratch.wPrev = grow(scratch.wPrev, d)
	Z, sw := scratch.z, scratch.sw
	for i := 0; i < n; i++ {
		row, zrow := X[i*d:i*d+d], Z[i*d:i*d+d]
		for j := range zrow {
			zrow[j] = (row[j] - mean[j]) / std[j]
		}
	}
	vec := useAVX2
	if vec {
		scratch.layoutAVX2(n, d)
	}
	// Re-sliced so the compiler sees len(gw) == d, as it does for w, and
	// drops the loops' bounds checks.
	e, gw, wPrev := scratch.e[:n], scratch.gw[:d], scratch.wPrev[:d]

	// Sample weights: 1, or the two balanced class weights — positive either
	// way, which the certificate relies on. absZ = sum_i sw[i]*sum_j |Z[i][j]|
	// is the scale of the logits' own rounding error (see the margin).
	w0, w1 := 1.0, 1.0
	if n0 := nf - n1; cfg.Balanced && n0 > 0 && n1 > 0 {
		w0, w1 = nf/(2*n0), nf/(2*n1)
	}
	totW, absZ := 0.0, 0.0
	for i, v := range y {
		sw[i] = w0
		if v == 1 {
			sw[i] = w1
		}
		totW += sw[i]
		rowAbs := 0.0
		for _, v := range Z[i*d : i*d+d] {
			rowAbs += math.Abs(v)
		}
		absZ += sw[i] * rowAbs
	}

	w := make([]float64, d)
	b := 0.0
	lr := cfg.LR
	// prevLoss is the reference's variable of that name whenever prevKnown;
	// otherwise the previous step was certified and its loss, should a later
	// step need it, is lossAt(wPrev, bPrev). magPrev is that step's mag.
	prevLoss, prevKnown := math.Inf(1), true
	bPrev, magPrev := 0.0, 0.0
	scratch.certified, scratch.computed, scratch.materialised = 0, 0, 0
	for it := 0; it < cfg.Iters; it++ {
		// e becomes the weighted residuals, gw and gb the raw gradient sums;
		// mag = sum_i sw[i]*(1+2|z_i|) bounds the sum of the magnitudes of
		// the loss's terms at these logits.
		var gb, mag float64
		if vec {
			gb, mag = scratch.passesAVX2(w, b, y)
		} else {
			logits(e, Z, w, b)
			gb, mag = residuals(e, y, sw, 0, 0)
			gradient(gw, Z, e)
		}

		// The certificate. The loss the backtrack tracks is
		//
		//	L(w,b) = sum_i sw[i]*l_i(z_i) + L2/2*|w|^2,  l_i(z) = log(1+e^z) - y[i]*z,
		//
		// which is not the function being descended: the step below follows
		// grad(data)/totW + L2*w, while grad L = grad(data) + L2*w (in terms of
		// the step direction g, totW*g - (totW-1)*L2*w) and dL/db = totW*gb.
		// gw and gb hold grad(data) at this point, before the division. L is
		// convex — sw >= 0 by construction above, L2 >= 0 by validation — so
		//
		//	L(w_prev, b_prev) - L(w, b) >= c = <grad L(w,b), (w_prev,b_prev) - (w,b)>,
		//
		// and once c exceeds everything rounding can have done to the two
		// losses as the reference would compute them, and to c, "loss >
		// prevLoss" is false without evaluating either. With u = 2^-53, the
		// first-order bounds, each proportional to mag + magPrev where
		//
		//	mag = sum_i sw[i]*(1+2|z_i|) + L2/2*|w|^2 + max_j|w[j]|*absZ + |b|*totW:
		//
		//   - a computed loss given its computed logits, (n+d+8)u per loss:
		//     a term sw*(lse - y*z) carries Exp and Log1p (under 1 ulp each),
		//     the z + log1p add and the lse - y*z cancellation, at most
		//     5u*sw*(1+2|z|) absolute whatever cancels; the n+d additions,
		//     ridge terms included, add gamma_(n+d) times the sum of the
		//     terms' magnitudes, itself at most the first two parts of mag;
		//   - the computed logits against the exact <w,Z_i>+b the inequality
		//     is about, (d+1)u: |l_i'| <= 1, so a loss moves by at most
		//     sum_i sw[i]*gamma_(d+1)*(sum_j|w[j]*Z[i][j]| + |b|), the last
		//     two parts of mag;
		//   - c itself, (n+7)u for the gradient entries (the sigmoid within
		//     4u, the residual's two roundings, gamma_n for the sum) and
		//     3(d+5)u for the products and the sum over j, against
		//     |w_prev - w| <= |w_prev| + |w|.
		//
		// (2n+5d+31)u in all; the margin takes 8(n+d+8)u, at least 1.6 times
		// that, for the second-order terms and mag's own rounding. Anything
		// non-finite — c, or a mag poisoned by a NaN or infinite logit or
		// weight — fails the test and takes the computing arm.
		c, ridge, wmax := gb*(bPrev-b), 0.0, 0.0
		for j, wj := range w {
			c += (gw[j] + cfg.L2*wj) * (wPrev[j] - wj)
			ridge += wj * wj
			if a := math.Abs(wj); a > wmax { // a NaN weight is caught by ridge and c
				wmax = a
			}
		}
		mag += 0.5*cfg.L2*ridge + wmax*absZ + math.Abs(b)*totW
		margin := float64(n+d+8) * 0x1p-50 * (mag + magPrev)

		for j := 0; j < d; j++ {
			gw[j] = gw[j]/totW + cfg.L2*w[j]
		}
		gb /= totW
		gnorm := math.Abs(gb)
		for j := 0; j < d; j++ {
			gnorm += math.Abs(gw[j])
		}
		if gnorm < cfg.Tol {
			break
		}
		// The first step compares with +Inf, which no loss exceeds.
		if it == 0 || certifies(c, margin) {
			scratch.certified++
			prevKnown = false
		} else {
			if !prevKnown {
				prevLoss = lossAt(Z, y, sw, wPrev, bPrev, cfg.L2)
				scratch.materialised++
			}
			loss := lossAt(Z, y, sw, w, b, cfg.L2)
			scratch.computed++
			// Crude backtracking: if loss went up, halve the step and continue.
			if loss > prevLoss {
				lr *= 0.5
				if lr < 1e-6 {
					break
				}
			}
			prevLoss, prevKnown = loss, true
		}
		copy(wPrev, w)
		bPrev, magPrev = b, mag
		for j := 0; j < d; j++ {
			w[j] -= lr * gw[j]
		}
		b -= lr * gb
	}
	return &Logistic{W: w, B: b, Mean: mean, Std: std}, nil
}

// logits is pass A in Go: e[i] = z_i = (sum_j w[j]*Z[i][j], j ascending from
// 0) + b, four rows at a time on four independent chains.
func logits(e, Z, w []float64, b float64) {
	d, n := len(w), len(e)
	i := 0
	for ; i+4 <= n; i += 4 {
		rows := Z[i*d : i*d+4*d]
		r0, r1, r2, r3 := rows[:d], rows[d:][:d], rows[2*d:][:d], rows[3*d:][:d]
		var s0, s1, s2, s3 float64
		for j, wj := range w {
			s0 += wj * r0[j]
			s1 += wj * r1[j]
			s2 += wj * r2[j]
			s3 += wj * r3[j]
		}
		e[i], e[i+1], e[i+2], e[i+3] = s0+b, s1+b, s2+b, s3+b
	}
	for ; i < n; i++ {
		r := Z[i*d:][:d]
		s := 0.0
		for j, wj := range w {
			s += wj * r[j]
		}
		e[i] = s + b
	}
}

// residuals is pass B in Go: the probability and weighted residual per row of
// e, in place (the branches are those of sigmoid, written out because a call
// per row is not inlined), with gb and mag advanced by each row's residual
// and sw[i]*(1+2|z_i|) in row order. The AVX2 kernel hands it the blocks its
// Exp does not cover.
func residuals(e, y, sw []float64, gb, mag float64) (float64, float64) {
	for i, z := range e {
		var p float64
		if z >= 0 {
			ex := math.Exp(-z)
			p = 1 / (1 + ex)
		} else {
			ex := math.Exp(z)
			p = ex / (1 + ex)
		}
		r := (p - y[i]) * sw[i]
		e[i] = r
		gb += r
		mag += sw[i] * (1 + 2*math.Abs(z))
	}
	return gb, mag
}

// gradient is pass C in Go: gw[j] = sum_i e[i]*Z[i][j], i ascending from 0,
// each gw[j] loaded and stored once per four rows.
func gradient(gw, Z, e []float64) {
	d, n := len(gw), len(e)
	for j := range gw {
		gw[j] = 0
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		rows := Z[i*d : i*d+4*d]
		r0, r1, r2, r3 := rows[:d], rows[d:][:d], rows[2*d:][:d], rows[3*d:][:d]
		e0, e1, e2, e3 := e[i], e[i+1], e[i+2], e[i+3]
		for j, g := range gw {
			g += e0 * r0[j]
			g += e1 * r1[j]
			g += e2 * r2[j]
			g += e3 * r3[j]
			gw[j] = g
		}
	}
	for ; i < n; i++ {
		r := Z[i*d:][:d]
		ei := e[i]
		for j := range gw {
			gw[j] += ei * r[j]
		}
	}
}

// certifies reports whether a certificate value c, held to the rounding
// margin, proves the loss did not rise. A NaN on either side compares false;
// an infinite margin admits nothing; an infinite c is a sum that overflowed
// on the way and says nothing about the real one.
func certifies(c, margin float64) bool {
	return c > margin && c <= math.MaxFloat64
}

// lossAt evaluates the tracked loss at (w, b) with the operations of the
// row-at-a-time reference in its order: each logit one chain over j plus b,
// rows ascending, the ridge terms added after the last row.
func lossAt(Z, y, sw, w []float64, b, l2 float64) float64 {
	d := len(w)
	loss := 0.0
	for i, yi := range y {
		r := Z[i*d:][:d]
		s := 0.0
		for j, wj := range w {
			s += wj * r[j]
		}
		z := s + b
		// log(1+e^z), computed stably.
		var lse float64
		if z > 0 {
			lse = z + math.Log1p(math.Exp(-z))
		} else {
			lse = math.Log1p(math.Exp(z))
		}
		loss += sw[i] * (lse - yi*z)
	}
	for _, wj := range w {
		loss += 0.5 * l2 * wj * wj
	}
	return loss
}

// ErrRowWidth reports a feature row with fewer columns than the model has
// weights. Width-checked entry points (Logistic.CheckWidth,
// nurd.Model.Predict) return it instead of letting Prob index past the row.
var ErrRowWidth = errors.New("linmodel: row narrower than the model's weights")

// CheckWidth returns ErrRowWidth (wrapped with the widths) when rows of n
// columns are too narrow for Prob.
func (m *Logistic) CheckWidth(n int) error {
	if n < len(m.W) {
		return fmt.Errorf("%w: %d columns, need at least %d", ErrRowWidth, n, len(m.W))
	}
	return nil
}

// Prob returns P(y=1|x). x must have at least len(W) columns (CheckWidth).
func (m *Logistic) Prob(x []float64) float64 {
	z := m.B
	for j := range m.W {
		z += m.W[j] * (x[j] - m.Mean[j]) / m.Std[j]
	}
	return sigmoid(z)
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Ridge solves min ||Xw + b - y||^2 + l2*||w||^2 in closed form via the
// normal equations (intercept unpenalized, handled by centering).
func Ridge(X [][]float64, y []float64, l2 float64) (w []float64, b float64, err error) {
	n := len(X)
	if n == 0 {
		return nil, 0, fmt.Errorf("linmodel: empty training set")
	}
	d := len(X[0])
	xm := vecmath.Centroid(X)
	ym := stats.Mean(y)
	// A = Xc' Xc + l2 I ; rhs = Xc' yc
	A := make([][]float64, d)
	for i := range A {
		A[i] = make([]float64, d)
	}
	rhs := make([]float64, d)
	for r := 0; r < n; r++ {
		yc := y[r] - ym
		for i := 0; i < d; i++ {
			xi := X[r][i] - xm[i]
			rhs[i] += xi * yc
			for j := i; j < d; j++ {
				A[i][j] += xi * (X[r][j] - xm[j])
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			A[j][i] = A[i][j]
		}
		A[i][i] += l2 + 1e-9
	}
	w, err = vecmath.SolveSPD(A, rhs)
	if err != nil {
		return nil, 0, err
	}
	b = ym - vecmath.Dot(w, xm)
	return w, b, nil
}
