package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("variance %v, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Fatalf("std %v, want 2", s)
	}
}

func TestMeanEmpty(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Fatalf("mean of empty = %v, want 0", m)
	}
	if v := Variance([]float64{3}); v != 0 {
		t.Fatalf("variance of singleton = %v, want 0", v)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 {
		t.Fatalf("min %v", Min(xs))
	}
	if Max(xs) != 7 {
		t.Fatalf("max %v", Max(xs))
	}
}

func TestQuantileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.35); math.Abs(got-3.5) > 1e-12 {
		t.Fatalf("Quantile(0.35) = %v, want 3.5", got)
	}
}

func TestQuantileSingleton(t *testing.T) {
	if got := Quantile([]float64{42}, 0.7); got != 42 {
		t.Fatalf("singleton quantile %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileMonotonicProperty(t *testing.T) {
	r := NewRNG(1)
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Normal(0, 10)
		}
		q1 := r.Float64()
		q2 := r.Float64()
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Quantile(xs, q1) <= Quantile(xs, q2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMedian(t *testing.T) {
	xs := []float64{9, 1, 5}
	if Median(xs) != 5 {
		t.Fatalf("median %v", Median(xs))
	}
}

func TestHistogramCounts(t *testing.T) {
	xs := []float64{0, 0.1, 0.2, 0.5, 0.9, 1.0}
	edges, counts := Histogram(xs, 2)
	if len(edges) != 3 || len(counts) != 2 {
		t.Fatalf("bad shapes: %d edges %d counts", len(edges), len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(xs) {
		t.Fatalf("histogram lost mass: %d of %d", total, len(xs))
	}
}

func TestHistogramConstantInput(t *testing.T) {
	_, counts := Histogram([]float64{5, 5, 5}, 4)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("constant-input histogram mass %d", total)
	}
}

func TestHistogramMassProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Normal(0, 3)
		}
		_, counts := Histogram(xs, 1+rng.Intn(20))
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalCDFSymmetry(t *testing.T) {
	if math.Abs(NormalCDF(0)-0.5) > 1e-12 {
		t.Fatalf("CDF(0) = %v", NormalCDF(0))
	}
	for _, z := range []float64{0.5, 1, 2, 3} {
		if d := NormalCDF(z) + NormalCDF(-z) - 1; math.Abs(d) > 1e-12 {
			t.Fatalf("CDF symmetry broken at %v: %v", z, d)
		}
	}
	if math.Abs(NormalCDF(1.96)-0.975) > 1e-3 {
		t.Fatalf("CDF(1.96) = %v", NormalCDF(1.96))
	}
}

func TestNormalPDFPeak(t *testing.T) {
	if math.Abs(NormalPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatalf("PDF(0) = %v", NormalPDF(0))
	}
	if NormalPDF(1) >= NormalPDF(0) {
		t.Fatal("PDF should peak at 0")
	}
}

func TestClip(t *testing.T) {
	if Clip(5, 0, 1) != 1 || Clip(-5, 0, 1) != 0 || Clip(0.5, 0, 1) != 0.5 {
		t.Fatal("clip broken")
	}
}

func TestQuantileMatchesSortedIndex(t *testing.T) {
	rng := NewRNG(77)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// p90 must fall between adjacent order statistics.
	p90 := Quantile(xs, 0.9)
	if p90 < s[898] || p90 > s[900] {
		t.Fatalf("p90 %v outside [%v, %v]", p90, s[898], s[900])
	}
}
