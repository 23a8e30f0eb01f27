package workload

// hist.go is the latency-recording side of the load harness: a histogram
// with fixed, data-independent bucket boundaries. Fixed boundaries matter
// for a load generator twice over — recording is allocation-free and O(1)
// on the hot path, and histograms from different lanes, runs, or machines
// merge exactly (same buckets everywhere), so percentile math is stable and
// pinnable against golden values.

import (
	"math"
	"time"
)

// Bucket geometry: 20 geometric buckets per decade (each ~12.2% wide) from
// 1µs to 1000s, plus an underflow and an overflow bucket. The relative
// quantile error is bounded by half a bucket width (~6%), far below run-to-
// run scheduling noise.
const (
	histMinSeconds = 1e-6
	histPerDecade  = 20
	histDecades    = 9
	histBuckets    = histPerDecade * histDecades
)

// Hist is a fixed-boundary latency histogram. The zero value is ready to
// use. It is not goroutine-safe; lanes record into their own and Merge.
type Hist struct {
	// counts[0] is the underflow bucket (< histMinSeconds); counts[1..
	// histBuckets] are the geometric buckets; counts[histBuckets+1] the
	// overflow bucket.
	counts [histBuckets + 2]uint64
	total  uint64
}

// histEdge returns the upper boundary of bucket i (1-based) in seconds.
func histEdge(i int) float64 {
	return histMinSeconds * math.Pow(10, float64(i)/histPerDecade)
}

// bucketOf maps a non-negative duration in seconds to its bucket index.
func bucketOf(sec float64) int {
	if !(sec >= histMinSeconds) { // negatives and NaN underflow
		return 0
	}
	b := 1 + int(math.Floor(math.Log10(sec/histMinSeconds)*histPerDecade))
	if b < 1 {
		b = 1
	}
	if b > histBuckets {
		b = histBuckets + 1
	}
	return b
}

// Record adds one duration observation.
func (h *Hist) Record(d time.Duration) {
	h.RecordSeconds(d.Seconds())
}

// RecordSeconds adds one observation measured in seconds.
func (h *Hist) RecordSeconds(sec float64) {
	h.counts[bucketOf(sec)]++
	h.total++
}

// Merge folds o into h (bucket-exact: both share the fixed boundaries).
func (h *Hist) Merge(o *Hist) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.total += o.total
}

// Quantile returns the q-quantile (0 <= q <= 1) in seconds, interpolated
// linearly inside the containing bucket. An empty histogram returns 0; mass
// in the overflow bucket reports that bucket's lower edge (a conservative
// floor — the harness additionally tracks the exact maximum).
func (h *Hist) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		frac := float64(rank-(cum-c)) / float64(c)
		switch i {
		case 0:
			return histMinSeconds * frac
		case histBuckets + 1:
			return histEdge(histBuckets)
		default:
			lo, hi := histEdge(i-1), histEdge(i)
			return lo + (hi-lo)*frac
		}
	}
	return histEdge(histBuckets) // unreachable: cum == total >= rank
}

// Percentiles is the fixed percentile report of a latency histogram, in
// milliseconds.
type Percentiles struct {
	P50  float64 `json:"p50_ms"`
	P95  float64 `json:"p95_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Max  float64 `json:"max_ms"`
}

// report renders the histogram's standard percentiles; maxSec overrides the
// histogram's bucketed maximum with the exact observed one.
func (h *Hist) report(maxSec float64) Percentiles {
	const ms = 1e3
	return Percentiles{
		P50:  h.Quantile(0.50) * ms,
		P95:  h.Quantile(0.95) * ms,
		P99:  h.Quantile(0.99) * ms,
		P999: h.Quantile(0.999) * ms,
		Max:  maxSec * ms,
	}
}
