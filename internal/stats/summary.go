package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// elements.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the numpy default). It
// panics on an empty slice or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: Quantile requires 0 <= q <= 1")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// QuantileSorted is like Quantile but assumes xs is already sorted
// ascending, avoiding the copy and sort.
func QuantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: QuantileSorted of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: QuantileSorted requires 0 <= q <= 1")
	}
	return quantileSorted(xs, q)
}

func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return s[n-1]
	}
	frac := h - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Histogram bins xs into nbins equal-width bins over [min, max] and returns
// the bin edges (nbins+1 values) and counts (nbins values).
func Histogram(xs []float64, nbins int) (edges []float64, counts []int) {
	if nbins <= 0 {
		panic("stats: Histogram requires nbins > 0")
	}
	if len(xs) == 0 {
		return make([]float64, nbins+1), make([]int, nbins)
	}
	lo, hi := Min(xs), Max(xs)
	if hi == lo {
		hi = lo + 1
	}
	edges = make([]float64, nbins+1)
	w := (hi - lo) / float64(nbins)
	for i := range edges {
		edges[i] = lo + float64(i)*w
	}
	counts = make([]int, nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b >= nbins {
			b = nbins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return edges, counts
}

// NormalCDF returns the standard normal cumulative distribution function
// evaluated at x.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalPDF returns the standard normal density at x.
func NormalPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// Clip bounds x to [lo, hi].
func Clip(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
