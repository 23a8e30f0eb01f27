package linmodel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// rowMajorPass is the Newton pass as it was before the training matrix went
// column-major, kept as the reference the column-major pass must match bit
// for bit: it walks the rows of the row-major standardized matrix z (d
// columns plus a column of ones), adding each row's terms into every
// gradient component and Hessian entry in memory. It returns F at theta,
// the gradient, the Hessian (upper triangle), and the number of rows whose
// Exp underflowed to 0.
func rowMajorPass(z, sw, theta, y []float64, l2, totW float64) (loss float64, g, h []float64, underflows int) {
	m := len(theta)
	h, g = make([]float64, m*m), make([]float64, m)
	for i, yi := range y {
		zr := z[i*m:][:m]
		z := 0.0
		for j, t := range theta {
			z += t * zr[j]
		}
		e := math.Exp(-math.Abs(z))
		if e == 0 {
			underflows++
		}
		q := 1 / (1 + e)
		p, lse := q, math.Log1p(e)
		if z < 0 {
			p = e * q
		} else {
			lse += z
		}
		sw := sw[i]
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
	return loss/totW + 0.5*l2*ridge, g, h, underflows
}

// rowMajorZ standardizes the len(y) x d row-major X by mean and std into a
// row-major matrix with a trailing column of ones, as the fit did before
// its matrix went column-major.
func rowMajorZ(X []float64, d int, mean, std []float64) []float64 {
	n, m := len(X)/d, d+1
	z := make([]float64, n*m)
	for i := 0; i < n; i++ {
		row, zrow := X[i*d:i*d+d], z[i*m:i*m+m]
		for j := range row {
			zrow[j] = (row[j] - mean[j]) / std[j]
		}
		zrow[d] = 1
	}
	return z
}

// sameFloat reports whether a and b have the same bits, or are both NaN: a
// NaN's payload depends on which operand of an instruction the compiler put
// first, not on the arithmetic.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestPassMatchesRowMajor holds the column-major pass to the row-major
// reference: the standardized matrix, the loss, the gradient and the
// Hessian's upper triangle must be bit-identical at random points. Widths 1
// to 20 give every remainder of the four-column tiles, and more columns than
// the pinned fits' 15; the rows run from 1 to 400, with both class
// weightings, one-class labels, NaN and ±Inf cells, and points far enough
// out that Exp underflows.
func TestPassMatchesRowMajor(t *testing.T) {
	rng := stats.NewRNG(20261018)
	underflows, cases := 0, 0
	for d := 1; d <= 20; d++ {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64, 127, 256, 400} {
			Xr, y := caseData(rng, n, d, 0.5)
			X := flatten(Xr)
			switch cases % 7 {
			case 3:
				X[rng.Intn(len(X))] = math.NaN()
			case 4:
				X[rng.Intn(len(X))] = math.Inf(1)
			case 5:
				X[rng.Intn(len(X))] = math.Inf(-1)
			case 6:
				for i := range y {
					y[i] = float64(cases / 7 % 2)
				}
			}
			cfg := LogisticConfig{L2: []float64{0, 1e-3, 3e-2, 10}[cases%4], Balanced: cases%2 == 0}
			name := fmt.Sprintf("%dx%d/case%d", n, d, cases)
			cases++

			var s LogisticScratch
			n1 := 0.0
			for _, v := range y {
				n1 += v
			}
			mean, std, totW := s.load(X, d, y, n1, cfg)
			z, m := rowMajorZ(X, d, mean, std), d+1
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					if !sameFloat(s.zc[j*n+i], z[i*m+j]) {
						t.Fatalf("%s: z[%d][%d] %v, row-major %v", name, i, j, s.zc[j*n+i], z[i*m+j])
					}
				}
			}
			// The origin, then points at scales from 1e-3 to 1e3: past a
			// margin of ~745, Exp(-|z|) is 0.
			theta := make([]float64, m)
			for trial := 0; trial < 4; trial++ {
				if trial > 0 {
					scale := math.Pow(10, 6*rng.Float64()-3)
					for j := range theta {
						theta[j] = scale * rng.Normal(0, 1)
					}
				}
				loss := s.pass(theta, y, cfg.L2, totW)
				wantLoss, wantG, wantH, under := rowMajorPass(z, s.sw[:n], theta, y, cfg.L2, totW)
				underflows += under
				if !sameFloat(loss, wantLoss) {
					t.Fatalf("%s trial %d: loss %v, row-major %v", name, trial, loss, wantLoss)
				}
				for j := 0; j < m; j++ {
					if !sameFloat(s.g[j], wantG[j]) {
						t.Fatalf("%s trial %d: g[%d] %v, row-major %v", name, trial, j, s.g[j], wantG[j])
					}
					for k := j; k < m; k++ {
						if got, want := s.h[j*m+k], wantH[j*m+k]; !sameFloat(got, want) {
							t.Fatalf("%s trial %d: h[%d][%d] %v, row-major %v", name, trial, j, k, got, want)
						}
					}
				}
			}
		}
	}
	if underflows == 0 {
		t.Errorf("no row's Exp underflowed: the large-margin points are not covered")
	}
}
