// Package vecmath implements the small dense linear-algebra kernel the
// reproduction needs: vector arithmetic, centroids, standardization,
// covariance, Cholesky solves, symmetric eigendecomposition, and pairwise
// distances. Everything operates on plain []float64 / [][]float64 so data can
// flow between packages without wrapper types.
package vecmath

import "math"

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of a.
func Norm2(a []float64) float64 {
	return math.Sqrt(Dot(a, a))
}

// Sub returns a - b as a new slice.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("vecmath: Sub length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: SqDist length mismatch")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float64) float64 {
	return math.Sqrt(SqDist(a, b))
}

// Centroid returns the component-wise mean of the rows of X. It panics if X
// is empty.
func Centroid(X [][]float64) []float64 {
	if len(X) == 0 {
		panic("vecmath: Centroid of empty matrix")
	}
	d := len(X[0])
	c := make([]float64, d)
	for _, row := range X {
		for j := 0; j < d; j++ {
			c[j] += row[j]
		}
	}
	inv := 1 / float64(len(X))
	for j := range c {
		c[j] *= inv
	}
	return c
}

// Clone returns a deep copy of the matrix X.
func Clone(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = make([]float64, len(row))
		copy(out[i], row)
	}
	return out
}

// ColumnStats returns the per-column mean and standard deviation of X.
// Columns with zero variance get std = 1 so that standardization is a no-op
// for them rather than a division by zero.
func ColumnStats(X [][]float64) (mean, std []float64) {
	if len(X) == 0 {
		return nil, nil
	}
	d := len(X[0])
	mean = make([]float64, d)
	std = make([]float64, d)
	for _, row := range X {
		for j := 0; j < d; j++ {
			mean[j] += row[j]
		}
	}
	n := float64(len(X))
	for j := range mean {
		mean[j] /= n
	}
	for _, row := range X {
		for j := 0; j < d; j++ {
			dv := row[j] - mean[j]
			std[j] += dv * dv
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / n)
		if std[j] == 0 {
			std[j] = 1
		}
	}
	return mean, std
}

// Standardize returns (X - mean) / std applied row-wise as a new matrix.
func Standardize(X [][]float64, mean, std []float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		r := make([]float64, len(row))
		for j := range row {
			r[j] = (row[j] - mean[j]) / std[j]
		}
		out[i] = r
	}
	return out
}

// Covariance returns the d x d sample covariance matrix of the rows of X
// (denominator n, population form; callers that need n-1 can rescale).
func Covariance(X [][]float64) [][]float64 {
	if len(X) == 0 {
		return nil
	}
	d := len(X[0])
	mean := Centroid(X)
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	for _, row := range X {
		for i := 0; i < d; i++ {
			di := row[i] - mean[i]
			for j := i; j < d; j++ {
				cov[i][j] += di * (row[j] - mean[j])
			}
		}
	}
	n := float64(len(X))
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i][j] /= n
			cov[j][i] = cov[i][j]
		}
	}
	return cov
}

// MatVec returns A*x.
func MatVec(A [][]float64, x []float64) []float64 {
	out := make([]float64, len(A))
	for i, row := range A {
		out[i] = Dot(row, x)
	}
	return out
}
