package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical outputs from different seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(7)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]int)
	for i := 0; i < 60000; i++ {
		v := r.Intn(6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn(6) out of range: %d", v)
		}
		seen[v]++
	}
	for k := 0; k < 6; k++ {
		if seen[k] < 8000 || seen[k] > 12000 {
			t.Fatalf("Intn(6) bucket %d count %d is far from uniform", k, seen[k])
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(3, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-3) > 0.03 {
		t.Fatalf("normal mean %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Fatalf("normal variance %v, want ~4", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("lognormal produced %v", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(13)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(2)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("exponential(2) mean %v, want ~0.5", mean)
	}
}

func TestParetoBounds(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(2, 3); v < 2 {
			t.Fatalf("pareto(xm=2) below scale: %v", v)
		}
	}
}

func TestGammaMoments(t *testing.T) {
	r := NewRNG(19)
	const n = 200000
	// Gamma(k=4, theta=0.5): mean 2, variance 1.
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Gamma(4, 0.5)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-2) > 0.02 {
		t.Fatalf("gamma mean %v, want ~2", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("gamma variance %v, want ~1", variance)
	}
}

func TestGammaSmallShape(t *testing.T) {
	r := NewRNG(23)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Gamma(0.5, 2) // mean = 1
		if v < 0 {
			t.Fatalf("gamma negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.03 {
		t.Fatalf("gamma(0.5,2) mean %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(29)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSampleDistinct(t *testing.T) {
	r := NewRNG(31)
	s := r.Sample(50, 20)
	if len(s) != 20 {
		t.Fatalf("sample size %d, want 20", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad sample %v", s)
		}
		seen[v] = true
	}
}

func TestSamplePanicsWhenKTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Sample(2, 3)")
		}
	}()
	NewRNG(1).Sample(2, 3)
}

func TestBernoulliProbability(t *testing.T) {
	r := NewRNG(43)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) hit rate %v", p)
	}
}

func TestUniformRangeProperty(t *testing.T) {
	r := NewRNG(47)
	f := func(lo, span float64) bool {
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(span) || math.IsInf(span, 0) {
			return true
		}
		lo = math.Mod(lo, 1e6)
		span = math.Abs(math.Mod(span, 1e6)) + 1e-9
		v := r.Uniform(lo, lo+span)
		return v >= lo && v < lo+span
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
