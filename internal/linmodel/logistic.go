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
	// L2 is the ridge penalty on the standardized weights (not the
	// intercept).
	L2 float64
	// Balanced, when true, weights each class by n/(2*n_class) so a skewed
	// split does not dominate the intercept.
	Balanced bool
}

// DefaultLogisticConfig returns settings adequate for the low-dimensional
// feature spaces in the traces (d <= 15): PU-EN's penalty. NURD's g_t
// converges to a better propensity model under a larger one
// (nurd.DefaultConfig).
func DefaultLogisticConfig() LogisticConfig {
	return LogisticConfig{L2: 1e-3}
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
	z   []float64 // standardized training matrix plus a column of ones, row-major
	sw  []float64 // per-row sample weight
	h   []float64 // Hessian, upper triangle; its lower triangle holds the Cholesky factor
	g   []float64 // gradient
	dir []float64 // Newton direction
	at  []float64 // accepted iterate (w, then b)
	x   []float64 // trial iterate

	// What the last fit took: passes over the data, and Newton directions
	// solved (one per accepted step, plus the one a capped fit abandons).
	passes, iters int
}

// The Newton fit's stop rule and cap: it returns once every component of the
// penalised gradient is at most gradTol in magnitude, or after maxPasses
// passes over the data, accepted and halved steps alike.
const (
	gradTol   = 1e-10
	maxPasses = 100
)

// grow returns buf resized to n elements, reallocating only when it is too
// small; the contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// FitLogistic trains P(y=1|x) by damped Newton iterations (see
// FitLogisticFlat). y must be 0/1. Features are standardized internally;
// callers pass raw features.
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
// The fit minimises
//
//	F(w, b) = sum_i sw[i]*l_i(z_i) / totW + L2/2*|w|^2,   l_i(z) = log(1+e^z) - y[i]*z,
//
// over the standardized rows (z_i = <w, Z_i> + b, the intercept
// unpenalised) by Newton's method (IRLS). Each pass over the data evaluates
// F, its gradient and its (d+1)^2 Hessian at one point; a Cholesky solve
// gives the Newton direction from the last accepted point, and a trial
// whose loss rose by more than rounding halves the step. The fit stops at
// the gradTol / maxPasses rule above.
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
	// Not cfg.L2 < 0: NaN must fail too. A convex objective, and so a
	// positive semi-definite Hessian, needs a finite non-negative penalty.
	if !(cfg.L2 >= 0 && cfg.L2 <= math.MaxFloat64) {
		return nil, fmt.Errorf("linmodel: L2 penalty %v is negative or not finite", cfg.L2)
	}
	n1 := 0.0
	for i, v := range y {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("linmodel: label %v of row %d is not 0 or 1", v, i)
		}
		n1 += v
	}
	if scratch == nil {
		scratch = &LogisticScratch{}
	}
	s := scratch
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
	// The intercept is one more weight, on a column of ones.
	m := d + 1
	s.z, s.sw, s.h = grow(s.z, n*m), grow(s.sw, n), grow(s.h, m*m)
	s.g, s.dir, s.at, s.x = grow(s.g, m), grow(s.dir, m), grow(s.at, m), grow(s.x, m)
	for i := 0; i < n; i++ {
		row, zrow := X[i*d:i*d+d], s.z[i*m:i*m+m]
		for j := range row {
			zrow[j] = (row[j] - mean[j]) / std[j]
		}
		zrow[d] = 1
	}

	// Sample weights: 1, or the two balanced class weights.
	w0, w1 := 1.0, 1.0
	if n0 := nf - n1; cfg.Balanced && n0 > 0 && n1 > 0 {
		w0, w1 = nf/(2*n0), nf/(2*n1)
	}
	totW := 0.0
	for i, v := range y {
		s.sw[i] = w0
		if v == 1 {
			s.sw[i] = w1
		}
		totW += s.sw[i]
	}

	at, x, dir := s.at, s.x, s.dir
	clear(at)
	loss := s.pass(at, y, cfg.L2, totW)
	s.passes, s.iters = 1, 0
	for s.passes < maxPasses && !converged(s.g) {
		s.newtonDir()
		s.iters++
		// A loss within rounding of the accepted one is no rise: near the
		// optimum the step's gain is smaller than that rounding.
		for step := 1.0; s.passes < maxPasses; step /= 2 {
			for j := range x {
				x[j] = at[j] - step*dir[j]
			}
			trial := s.pass(x, y, cfg.L2, totW)
			s.passes++
			if !(trial > loss+0x1p-40*loss) {
				copy(at, x)
				loss = trial
				break
			}
		}
	}
	return &Logistic{W: append([]float64(nil), at[:d]...), B: at[d], Mean: mean, Std: std}, nil
}

// pass evaluates F at theta = (w, b) over the rows of s.z, returns it, and
// leaves the gradient in s.g and the Hessian's upper triangle in s.h.
func (s *LogisticScratch) pass(theta, y []float64, l2, totW float64) float64 {
	m := len(theta)
	h, g := s.h[:m*m], s.g[:m]
	clear(h)
	clear(g)
	loss := 0.0
	for i, yi := range y {
		zr := s.z[i*m:][:m]
		z := 0.0
		for j, t := range theta {
			z += t * zr[j]
		}
		// The probability, the loss term and the curvature p(1-p), all
		// from one e = Exp(-|z|).
		e := math.Exp(-math.Abs(z))
		q := 1 / (1 + e)
		p, lse := q, math.Log1p(e)
		if z < 0 {
			p = e * q
		} else {
			lse += z
		}
		sw := s.sw[i]
		loss += sw * (lse - yi*z)
		r, v := sw*(p-yi), sw*e*q*q
		for j, a := range zr {
			g[j] += r * a
			va := v * a
			zk := zr[j:]
			hr := h[j*m+j:][:len(zk)]
			for k, c := range zk {
				hr[k] += va * c
			}
		}
	}
	ridge := 0.0
	for j := 0; j < m; j++ {
		for k := j; k < m; k++ {
			h[j*m+k] /= totW
		}
		g[j] /= totW
		if j < m-1 {
			h[j*m+j] += l2
			g[j] += l2 * theta[j]
			ridge += theta[j] * theta[j]
		}
	}
	return loss/totW + 0.5*l2*ridge
}

// newtonDir sets s.dir to H^-1 g, factoring the Hessian in s.h (upper
// triangle) into its lower triangle by Cholesky. A pivot that rounding
// leaves at or near zero is a direction the data do not determine (a
// constant or duplicated column with no penalty); an infinite pivot zeroes
// its row of the factor and its component of the direction, leaving it out
// of this step. A NaN passes through and poisons the fit, as NaN input does.
func (s *LogisticScratch) newtonDir() {
	m := len(s.g)
	h, g, dir := s.h[:m*m], s.g, s.dir[:m]
	for j := 0; j < m; j++ {
		row := h[j*m : j*m+j]
		piv := h[j*m+j]
		for _, l := range row {
			piv -= l * l
		}
		if piv <= 0x1p-40*h[j*m+j] {
			piv = math.Inf(1)
		}
		piv = math.Sqrt(piv)
		h[j*m+j] = piv
		for i := j + 1; i < m; i++ {
			v := h[j*m+i]
			for k, l := range row {
				v -= h[i*m+k] * l
			}
			h[i*m+j] = v / piv
		}
	}
	for i := 0; i < m; i++ {
		v := g[i]
		for k, l := range h[i*m : i*m+i] {
			v -= l * dir[k]
		}
		dir[i] = v / h[i*m+i]
	}
	for i := m - 1; i >= 0; i-- {
		v := dir[i]
		for k := i + 1; k < m; k++ {
			v -= h[k*m+i] * dir[k]
		}
		dir[i] = v / h[i*m+i]
	}
}

// converged reports whether every gradient component is within gradTol of
// zero; a NaN is not.
func converged(g []float64) bool {
	for _, v := range g {
		if !(math.Abs(v) <= gradTol) {
			return false
		}
	}
	return true
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
