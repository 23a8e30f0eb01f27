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
// its zero value is ready to use. Not safe for concurrent use: one fit at a
// time owns it. nurd's refits borrow one from a pool for the length of a fit,
// so no model keeps one between refits.
type LogisticScratch struct {
	// The standardized training matrix plus a column of ones, column-major:
	// for n rows, column j is zc[j*n : (j+1)*n]. A gradient component is a
	// sum down one of these columns, a Hessian entry a sum down two.
	zc  []float64
	sw  []float64 // per-row sample weight
	r   []float64 // per-row gradient factor sw*(p-y) of the last pass
	v   []float64 // per-row curvature sw*p*(1-p) of the last pass
	vz  []float64 // per-row margin z, then v times one column of zc
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
//
// The rows are standardized once per fit into a column-major copy, so that
// each pass sums down columns: every gradient component and Hessian entry
// builds up in a register, in row order, with the roundings of a row-by-row
// update and so with its bits (see pass).
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
	mean, std, totW := s.load(X, d, y, n1, cfg)

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

// load sizes s for a fit of the len(y) x d row-major X with n1 positive
// labels: it standardizes X into the columns of s.zc, appends the column of
// ones, sets the sample weights s.sw, and returns the column means and
// standard deviations and the total sample weight.
func (s *LogisticScratch) load(X []float64, d int, y []float64, n1 float64, cfg LogisticConfig) (mean, std []float64, totW float64) {
	n := len(y)
	nf := float64(n)

	// Column statistics and the standardized copy, the operations of
	// vecmath.ColumnStats and vecmath.Standardize in their order.
	mean = make([]float64, d)
	std = make([]float64, d)
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
	s.zc, s.sw, s.r, s.v, s.vz, s.h = grow(s.zc, n*m), grow(s.sw, n), grow(s.r, n), grow(s.v, n), grow(s.vz, n), grow(s.h, m*m)
	s.g, s.dir, s.at, s.x = grow(s.g, m), grow(s.dir, m), grow(s.at, m), grow(s.x, m)
	for j, mu := range mean {
		col, sd := s.zc[j*n:][:n], std[j]
		for i := range col {
			col[i] = (X[i*d+j] - mu) / sd
		}
	}
	ones := s.zc[d*n:][:n]
	for i := range ones {
		ones[i] = 1
	}

	// Sample weights: 1, or the two balanced class weights.
	w0, w1 := 1.0, 1.0
	if n0 := nf - n1; cfg.Balanced && n0 > 0 && n1 > 0 {
		w0, w1 = nf/(2*n0), nf/(2*n1)
	}
	for i, v := range y {
		s.sw[i] = w0
		if v == 1 {
			s.sw[i] = w1
		}
		totW += s.sw[i]
	}
	return mean, std, totW
}

// pass evaluates F at theta = (w, b) over the columns of s.zc, returns it,
// and leaves the gradient in s.g and the Hessian's upper triangle in s.h.
//
// The margins z_i come first, four columns at a time, then one loop over the
// rows computes each row's loss term and its gradient and curvature factors
// r_i and v_i. The gradient and the Hessian then go column by column:
// component j is sum_i r_i*z_ij and entry (j, k) sum_i (v_i*z_ij)*z_ik, each
// added from 0 in row order in a register of its own (sums). These are the
// operands, roundings and order of updating every entry row by row, so the
// bits are the same, without a load and a store of each entry per row.
func (s *LogisticScratch) pass(theta, y []float64, l2, totW float64) float64 {
	m, n := len(theta), len(y)
	zc, r, v, vz, sw := s.zc[:m*n], s.r[:n], s.v[:n], s.vz[:n], s.sw[:n]
	h, g := s.h[:m*m], s.g[:m]
	col := func(j int) []float64 { return zc[j*n:][:n] }

	// z_i = 0 + theta_0*z_i0 + theta_1*z_i1 + ..., left to right.
	clear(vz)
	j := 0
	for ; j+4 <= m; j += 4 {
		margin4(vz, theta[j:j+4], col(j), col(j+1), col(j+2), col(j+3))
	}
	for ; j < m; j++ {
		t, c := theta[j], col(j)
		for i, z := range vz {
			vz[i] = z + t*c[i]
		}
	}
	loss := 0.0
	for i, yi := range y {
		z := vz[i]
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
		w := sw[i]
		loss += w * (lse - yi*z)
		r[i], v[i] = w*(p-yi), w*e*q*q
	}

	sums(g, r, zc, 0)
	ridge := 0.0
	for j := 0; j < m; j++ {
		c := col(j)
		for i, vi := range v {
			vz[i] = vi * c[i]
		}
		hj := h[j*m:][:m]
		sums(hj, vz, zc, j)
		for k := j; k < m; k++ {
			hj[k] /= totW
		}
		g[j] /= totW
		if j < m-1 {
			hj[j] += l2
			g[j] += l2 * theta[j]
			ridge += theta[j] * theta[j]
		}
	}
	return loss/totW + 0.5*l2*ridge
}

// margin4 adds t[0]*c0[i] + ... + t[3]*c3[i] to z[i], left to right.
func margin4(z, t, c0, c1, c2, c3 []float64) {
	t0, t1, t2, t3 := t[0], t[1], t[2], t[3]
	c0, c1, c2, c3 = c0[:len(z)], c1[:len(z)], c2[:len(z)], c3[:len(z)]
	for i, zi := range z {
		z[i] = zi + t0*c0[i] + t1*c1[i] + t2*c2[i] + t3*c3[i]
	}
}

// sums sets dst[k] = sum_i a_i*c_ik for the columns k = lo..len(dst)-1 of
// the column-major zc, each added from 0 in row order: in tiles of four
// columns, then one of two, then one.
func sums(dst, a, zc []float64, lo int) {
	n, k := len(a), lo
	col := func(k int) []float64 { return zc[k*n:][:n] }
	for ; k+4 <= len(dst); k += 4 {
		dst[k], dst[k+1], dst[k+2], dst[k+3] = sums4(a, col(k), col(k+1), col(k+2), col(k+3))
	}
	if k+2 <= len(dst) {
		dst[k], dst[k+1] = sums2(a, col(k), col(k+1))
		k += 2
	}
	if k < len(dst) {
		dst[k] = sums1(a, col(k))
	}
}

// sums4 returns sum_i a_i*c_i for four columns c, each in its own register.
func sums4(a, c0, c1, c2, c3 []float64) (s0, s1, s2, s3 float64) {
	c0, c1, c2, c3 = c0[:len(a)], c1[:len(a)], c2[:len(a)], c3[:len(a)]
	for i, x := range a {
		s0 += x * c0[i]
		s1 += x * c1[i]
		s2 += x * c2[i]
		s3 += x * c3[i]
	}
	return s0, s1, s2, s3
}

// sums2 is sums4 over two columns.
func sums2(a, c0, c1 []float64) (s0, s1 float64) {
	c0, c1 = c0[:len(a)], c1[:len(a)]
	for i, x := range a {
		s0 += x * c0[i]
		s1 += x * c1[i]
	}
	return s0, s1
}

// sums1 is sums4 over one column.
func sums1(a, c0 []float64) (s0 float64) {
	c0 = c0[:len(a)]
	for i, x := range a {
		s0 += x * c0[i]
	}
	return s0
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
