package cluster

import (
	"testing"

	"repro/internal/wire"
)

// TestRingBalance pins the ring's load-spread claim: with 64 virtual points
// per node, the busiest node's job share stays under 1.6x the idlest's for
// every node count from 3 to 16. Jobs are sequential IDs — the common
// allocation pattern — mixed onto the ring exactly as Node places them.
func TestRingBalance(t *testing.T) {
	const jobs = 200000
	for n := 3; n <= 16; n++ {
		r := NewRing(n)
		counts := make([]int, n)
		for id := uint64(1); id <= jobs; id++ {
			counts[r.Node(id)]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if min == 0 {
			t.Fatalf("%d nodes: a node received zero jobs: %v", n, counts)
		}
		if ratio := float64(max) / float64(min); ratio >= 1.6 {
			t.Errorf("%d nodes: max/min job share %.3f, want < 1.6 (counts %v)", n, ratio, counts)
		}
	}
}

// TestRingPlacementStable: the ring is a pure function of the node count,
// so a restarted process (a fresh NewRing) places every job on the same
// node.
func TestRingPlacementStable(t *testing.T) {
	for _, n := range []int{1, 3, 5, 8, 16} {
		a, b := NewRing(n), NewRing(n)
		for id := uint64(0); id < 10000; id++ {
			if an, bn := a.Node(id), b.Node(id); an != bn {
				t.Fatalf("%d nodes: job %d placed on node %d, rebuilt ring says %d", n, id, an, bn)
			}
		}
	}
}

// TestRingCoversHashSpace: lookups at the extremes of the hash space wrap
// correctly and always return a valid node.
func TestRingCoversHashSpace(t *testing.T) {
	r := NewRing(4)
	// Probe raw positions around every point boundary plus the space's ends
	// by inverting nothing — Node mixes its argument, so just sweep a dense
	// set of IDs and check the range.
	for id := uint64(0); id < 100000; id++ {
		if n := r.Node(id); n < 0 || n >= 4 {
			t.Fatalf("job %d routed to node %d, want [0,4)", id, n)
		}
	}
	// The wrap case specifically: an ID whose mixed hash lands above the
	// highest virtual point takes points[0]'s node.
	top := r.points[len(r.points)-1].hash
	found := false
	for id := uint64(0); id < 1_000_000 && !found; id++ {
		if wire.Mix64(id) > top {
			if got, want := r.Node(id), r.points[0].node; got != want {
				t.Fatalf("wrap: job %d above the top point routed to %d, want %d", id, got, want)
			}
			found = true
		}
	}
	if !found {
		t.Skip("no probe ID hashed above the top virtual point")
	}
}

// TestRingSingleNode: a 1-node ring routes everything to node 0.
func TestRingSingleNode(t *testing.T) {
	r := NewRing(1)
	for id := uint64(0); id < 1000; id++ {
		if r.Node(id) != 0 {
			t.Fatalf("1-node ring routed job %d to node %d", id, r.Node(id))
		}
	}
}
