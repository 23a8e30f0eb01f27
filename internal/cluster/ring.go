// Package cluster is a deterministic job→node placement function: a
// consistent-hash ring that maps a job ID to one of n nodes. There is no
// in-tree router behind it — the serving stack is one node, whose shards
// and per-shard WAL streams already spread a job population — so its one
// in-tree caller is the benchmark, which times a lookup
// (cluster.ring_node_ns).
//
// The ring is built from the node count alone, with VNodesPerNode virtual
// points per node derived from the same splitmix64 finalizer (wire.Mix64)
// the registry uses for shard placement. Same node count, same ring: a job
// lands on the same node across process restarts.
package cluster

import (
	"sort"

	"repro/internal/wire"
)

// VNodesPerNode is how many virtual points each node contributes to the
// ring. More points smooth the arc-length distribution between nodes; 64
// keeps the max/min job-share ratio under 1.6 across 3–16 nodes (pinned by
// TestRingBalance) while lookups stay a binary search over ≤ 1024 points.
const VNodesPerNode = 64

// splitmixGamma is the splitmix64 stream increment; combined with
// wire.Mix64 it turns (node, vnode) pairs into well-spread ring points.
const splitmixGamma = 0x9e3779b97f4a7c15

// Ring is a consistent-hash ring over a fixed set of nodes, identified by
// index 0..n-1. It is immutable after construction and safe for concurrent
// use.
type Ring struct {
	points []ringPoint // ascending by hash
}

type ringPoint struct {
	hash uint64
	node int
}

// NewRing builds the ring for n nodes (n >= 1). The construction is a pure
// function of n: ring placement is stable across restarts.
func NewRing(n int) *Ring {
	if n < 1 {
		panic("cluster: ring needs at least one node")
	}
	r := &Ring{points: make([]ringPoint, 0, n*VNodesPerNode)}
	for node := 0; node < n; node++ {
		// Each (node, vnode) pair owns a distinct input — the pairs are
		// enumerated, then pushed through one splitmix64 step (gamma
		// multiply + finalizer), whose avalanche spreads consecutive
		// inputs across the whole ring. Disjointness matters: seeding
		// per-node arithmetic streams from the node index makes adjacent
		// nodes share almost all their points.
		for v := 0; v < VNodesPerNode; v++ {
			x := uint64(node*VNodesPerNode+v+1) * splitmixGamma
			r.points = append(r.points, ringPoint{hash: wire.Mix64(x), node: node})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node // deterministic tie-break
	})
	return r
}

// Node maps a job ID to its owning node: the job's hash point walks
// clockwise to the first virtual point at or past it (wrapping at the top).
// Job IDs are mixed first so adjacent IDs — the common allocation pattern —
// scatter instead of marching around the ring together.
func (r *Ring) Node(jobID uint64) int {
	h := wire.Mix64(jobID)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}
