package workload

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/stats"
)

// TestHistGolden pins the quantile math against literal golden values: 1000
// deterministic lognormal draws recorded once, percentiles hardcoded. Any
// change to the bucket geometry, rank convention, or interpolation shows up
// as a golden mismatch, not a silent percentile shift in every future BENCH
// report.
func TestHistGolden(t *testing.T) {
	rng := stats.NewRNG(12345)
	var h Hist
	for i := 0; i < 1000; i++ {
		h.RecordSeconds(rng.LogNormal(-4.6, 1.0)) // ~10ms median, wide spread
	}
	golden := []struct {
		q    float64
		want float64
	}{
		{0.50, 0.01051376191285037},
		{0.95, 0.056234132519034905},
		{0.99, 0.11904719330480645},
		{0.999, 0.19952623149688789},
	}
	for _, g := range golden {
		got := h.Quantile(g.q)
		if math.Abs(got-g.want) > 1e-12*math.Max(1, math.Abs(g.want)) {
			t.Errorf("Quantile(%v) = %.17g, golden %.17g", g.q, got, g.want)
		}
	}
}

// TestHistQuantileAccuracy bounds the bucketing error: against the exactly
// sorted sample, every reported quantile must be within one bucket width
// (~12.2% relative) of the true order statistic.
func TestHistQuantileAccuracy(t *testing.T) {
	rng := stats.NewRNG(99)
	var h Hist
	vals := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := rng.LogNormal(-3.9, 1.3)
		vals = append(vals, v)
		h.RecordSeconds(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		got := h.Quantile(q)
		rank := int(math.Ceil(q * float64(len(vals))))
		exact := vals[rank-1]
		if rel := math.Abs(got-exact) / exact; rel > 0.13 {
			t.Errorf("Quantile(%v) = %v, exact %v: relative error %.1f%% exceeds one bucket width", q, got, exact, 100*rel)
		}
	}
}

// TestHistEdges covers the boundary buckets and degenerate inputs.
func TestHistEdges(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	h.RecordSeconds(-1)         // underflow (negative)
	h.RecordSeconds(math.NaN()) // underflow (NaN guards)
	h.RecordSeconds(1e-9)       // underflow (below 1µs)
	h.RecordSeconds(5e4)        // overflow (above 1000s)
	h.Record(10 * time.Millisecond)
	if h.total != 5 {
		t.Fatalf("total = %d, want 5", h.total)
	}
	if q := h.Quantile(0.01); q >= histMinSeconds {
		t.Errorf("underflow mass reported %v, want < %v", q, histMinSeconds)
	}
	if q := h.Quantile(1); q != histEdge(histBuckets) {
		t.Errorf("overflow mass reported %v, want top edge %v", q, histEdge(histBuckets))
	}
	// Monotonicity across the full q range.
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone: q=%v gives %v after %v", q, v, prev)
		}
		prev = v
	}
}

// TestHistMerge: merging lane histograms must be exactly equivalent to
// recording everything into one.
func TestHistMerge(t *testing.T) {
	rng := stats.NewRNG(7)
	var a, b, all Hist
	for i := 0; i < 2000; i++ {
		v := rng.LogNormal(-5, 1.5)
		all.RecordSeconds(v)
		if i%2 == 0 {
			a.RecordSeconds(v)
		} else {
			b.RecordSeconds(v)
		}
	}
	a.Merge(&b)
	if a.total != all.total {
		t.Fatalf("merged count %d, want %d", a.total, all.total)
	}
	for _, q := range []float64{0.1, 0.5, 0.95, 0.99, 0.999} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("Quantile(%v): merged %v != direct %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
}
