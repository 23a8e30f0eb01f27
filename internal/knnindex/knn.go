// Package knnindex provides brute-force k-nearest-neighbor queries over a
// fixed point set, the substrate for the KNN, LOF, COF, SOD, and ABOD
// outlier detectors. For the trace scale here (hundreds to a few thousand
// points, d <= 15) brute force with a bounded max-heap outperforms tree
// indexes and is exactly reproducible.
package knnindex

import (
	"fmt"
	"math"

	"repro/internal/vecmath"
)

// Index owns a point set and answers k-NN queries against it.
type Index struct {
	points [][]float64
}

// New builds an index over points (the slice is retained, not copied).
func New(points [][]float64) (*Index, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("knnindex: empty point set")
	}
	return &Index{points: points}, nil
}

// Point returns the i-th indexed point.
func (ix *Index) Point(i int) []float64 { return ix.points[i] }

// Neighbor is one query result.
type Neighbor struct {
	Index int
	Dist  float64
}

// Query returns the k nearest indexed points to q, ascending by distance.
// If exclude >= 0, the point with that index is skipped (for self-queries).
// k is clamped to the available point count.
func (ix *Index) Query(q []float64, k int, exclude int) []Neighbor {
	n := len(ix.points)
	avail := n
	if exclude >= 0 && exclude < n {
		avail--
	}
	if k > avail {
		k = avail
	}
	if k <= 0 {
		return nil
	}
	// Bounded max-heap of size k over squared distances.
	heap := make([]Neighbor, 0, k)
	push := func(nb Neighbor) {
		if len(heap) < k {
			heap = append(heap, nb)
			// sift up
			i := len(heap) - 1
			for i > 0 {
				p := (i - 1) / 2
				if heap[p].Dist >= heap[i].Dist {
					break
				}
				heap[p], heap[i] = heap[i], heap[p]
				i = p
			}
			return
		}
		if nb.Dist >= heap[0].Dist {
			return
		}
		heap[0] = nb
		// sift down
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < k && heap[l].Dist > heap[big].Dist {
				big = l
			}
			if r < k && heap[r].Dist > heap[big].Dist {
				big = r
			}
			if big == i {
				break
			}
			heap[i], heap[big] = heap[big], heap[i]
			i = big
		}
	}
	for i, p := range ix.points {
		if i == exclude {
			continue
		}
		push(Neighbor{Index: i, Dist: vecmath.SqDist(q, p)})
	}
	// Sort ascending (k is small; insertion sort).
	out := heap
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Dist < out[j-1].Dist; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	return out
}

// KDist returns the distance to the k-th nearest neighbor of q (excluding
// the given index), or 0 when no neighbors exist.
func (ix *Index) KDist(q []float64, k int, exclude int) float64 {
	nb := ix.Query(q, k, exclude)
	if len(nb) == 0 {
		return 0
	}
	return nb[len(nb)-1].Dist
}
