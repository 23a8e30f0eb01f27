package cluster

// cluster.go is the coordinator itself: N in-process serve.Servers behind
// one Ring. Every job-scoped call routes to the owning node; cluster-wide
// reads scatter to all nodes and gather. The Cluster implements the same
// serving surface servehttp.NewHandler consumes, so a multi-node front end
// is the single-node front end pointed at a Cluster instead of a Server.

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"repro/internal/serve"
	"repro/internal/simulator"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Cluster routes jobs across a fixed set of in-process nodes.
type Cluster struct {
	cfg   serve.Config
	ring  *Ring
	nodes []*serve.Server
	wals  []*wal.WAL // parallel to nodes; nil entries for WAL-less nodes
}

// New builds an n-node cluster of fresh, WAL-less servers sharing one
// config. Each node gets its own serve.Server — own shards, own refit pool,
// own overload accounting — exactly as if it were a separate process.
func New(n int, cfg serve.Config) *Cluster {
	if n < 1 {
		panic("cluster: need at least one node")
	}
	c := &Cluster{cfg: cfg, ring: NewRing(n), nodes: make([]*serve.Server, n), wals: make([]*wal.WAL, n)}
	for i := range c.nodes {
		c.nodes[i] = serve.NewServer(cfg)
	}
	return c
}

// NodeDir names node i's WAL directory under the cluster root. Placement is
// a pure function of the node count (see NewRing), so a directory written
// by node i always recovers into node i.
func NodeDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("node-%03d", i))
}

// Recover builds an n-node cluster whose nodes each recover from (and keep
// appending to) their own WAL directory under root: root/node-000,
// root/node-001, ... Missing directories start empty, like serve.Recover.
// The returned stats are per node, in node order.
func Recover(root string, n int, cfg serve.Config, opts wal.Options) (*Cluster, []wal.RecoveryStats, error) {
	if n < 1 {
		return nil, nil, errors.New("cluster: need at least one node")
	}
	c := &Cluster{cfg: cfg, ring: NewRing(n), nodes: make([]*serve.Server, n), wals: make([]*wal.WAL, n)}
	stats := make([]wal.RecoveryStats, n)
	for i := range c.nodes {
		sv, w, rst, err := serve.Recover(NodeDir(root, i), cfg, opts)
		if err != nil {
			c.Close()
			return nil, nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes[i], c.wals[i], stats[i] = sv, w, rst
	}
	return c, stats, nil
}

// Close closes every node's WAL (no-op for WAL-less nodes), returning the
// first error.
func (c *Cluster) Close() error {
	var first error
	for _, w := range c.wals {
		if w == nil {
			continue
		}
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NumNodes returns the cluster size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Nodes exposes the underlying servers (for tests and per-node probes); the
// slice must not be mutated.
func (c *Cluster) Nodes() []*serve.Server { return c.nodes }

// NodeFor returns the ring's owner for a job ID.
func (c *Cluster) NodeFor(jobID uint64) int { return c.ring.Node(jobID) }

// node returns the owning server for a job ID.
func (c *Cluster) node(jobID uint64) *serve.Server { return c.nodes[c.ring.Node(jobID)] }

// StartJob registers the job on its owning node.
func (c *Cluster) StartJob(spec wire.JobSpec, pred simulator.Predictor) error {
	return c.node(spec.JobID).StartJob(spec, pred)
}

// Ingest routes one event to its job's node.
func (c *Cluster) Ingest(e wire.Event) error {
	return c.node(e.JobID).Ingest(e)
}

// StageJob registers the job on its owning node without waiting for that
// node's write-ahead log; Commit is the acknowledgment.
func (c *Cluster) StageJob(spec wire.JobSpec, pred simulator.Predictor) error {
	return c.node(spec.JobID).StageJob(spec, pred)
}

// StageEvent routes one event to its job's node without waiting for that
// node's write-ahead log; Commit is the acknowledgment.
func (c *Cluster) StageEvent(e wire.Event) error {
	return c.node(e.JobID).StageEvent(e)
}

// Commit forwards the acknowledgment barrier to every node. A node with
// nothing staged answers after one scan of its streams' slots, so the nodes
// a batch did not touch cost it no write.
func (c *Cluster) Commit() error {
	var first error
	for _, sv := range c.nodes {
		if err := sv.Commit(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// IngestBatch routes each event in order through serve.StageBatch — the same
// loop, and so the same shed and stop rules, as a single node — and commits
// what it applied once, on the nodes' write-ahead logs, before it returns
// either way. Per-job event order is preserved (a job's events all land on
// one node, in call order), which is the only order the protocol defines.
func (c *Cluster) IngestBatch(events []wire.Event) error {
	return serve.StageBatch(events, c.StageEvent, c.Commit)
}

// FinishJob closes the job's stream on its owning node.
func (c *Cluster) FinishJob(jobID uint64, t float64) error {
	return c.node(jobID).FinishJob(jobID, t)
}

// DropJob removes the job from its owning node.
func (c *Cluster) DropJob(jobID uint64) error {
	return c.node(jobID).DropJob(jobID)
}

// Query answers a batched verdict query from the job's owning node.
func (c *Cluster) Query(jobID uint64, taskIDs []int) ([]serve.TaskVerdict, error) {
	return c.QueryAppend(nil, jobID, taskIDs)
}

// QueryAppend is Query appending into dst (see serve.Server.QueryAppend).
func (c *Cluster) QueryAppend(dst []serve.TaskVerdict, jobID uint64, taskIDs []int) ([]serve.TaskVerdict, error) {
	return c.node(jobID).QueryAppend(dst, jobID, taskIDs)
}

// IsStraggler asks the job's owning node for one task's verdict.
func (c *Cluster) IsStraggler(jobID uint64, taskID int) (bool, error) {
	return c.node(jobID).IsStraggler(jobID, taskID)
}

// Report returns the job's serving report from its owning node.
func (c *Cluster) Report(jobID uint64) (*serve.JobReport, error) {
	return c.node(jobID).Report(jobID)
}

// JobIDs gathers every node's registered job IDs, sorted ascending.
func (c *Cluster) JobIDs() []uint64 {
	var ids []uint64
	for _, sv := range c.nodes {
		ids = append(ids, sv.JobIDs()...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// NumShards sums the nodes' shard counts.
func (c *Cluster) NumShards() int {
	n := 0
	for _, sv := range c.nodes {
		n += sv.NumShards()
	}
	return n
}

// Config returns the config every node was built with.
func (c *Cluster) Config() serve.Config { return c.cfg }

// RetryHint returns the most loaded node's transient back-off hint: a
// client backing off for the cluster must respect its slowest member, since
// the router may send its next batch anywhere.
func (c *Cluster) RetryHint() int {
	hint := 1
	for _, sv := range c.nodes {
		if h := sv.RetryHint(); h > hint {
			hint = h
		}
	}
	return hint
}

// Stats scatter-gathers every node's counters into one cluster-wide view:
// monotonic counters and live gauges sum, high-water marks take the max,
// and per-node bounds (queue bounds, retry hint) report the shared config's
// value. Per-node WAL counters are not folded in — durability lag is a
// per-node operational signal (see NodeStats), and summing next-LSNs across
// independent logs would fabricate a number no log carries.
func (c *Cluster) Stats() serve.Stats {
	var agg serve.Stats
	for i, sv := range c.nodes {
		st := sv.Stats()
		if i == 0 {
			// Shared-config bounds: identical on every node.
			agg.Overload.IngestQueueBound = st.Overload.IngestQueueBound
			agg.Overload.RefitQueueBound = st.Overload.RefitQueueBound
		}
		agg.Jobs += st.Jobs
		agg.ActiveJobs += st.ActiveJobs
		agg.Events += st.Events
		agg.DroppedEvents += st.DroppedEvents
		agg.Terminations += st.Terminations
		agg.Queries += st.Queries
		agg.Refits += st.Refits
		agg.RefitTotal += st.RefitTotal
		if st.RefitMax > agg.RefitMax {
			agg.RefitMax = st.RefitMax
		}
		agg.RefitQueue += st.RefitQueue
		agg.RefitInflight += st.RefitInflight
		agg.RefitLag += st.RefitLag
		agg.WarmFits += st.WarmFits
		agg.ScratchFits += st.ScratchFits
		agg.Overload.ShedHeartbeats += st.Overload.ShedHeartbeats
		agg.Overload.ShedFinishes += st.Overload.ShedFinishes
		agg.Overload.IngestWaits += st.Overload.IngestWaits
		agg.Overload.IngestQueueDepth += st.Overload.IngestQueueDepth
		agg.Overload.RateLimited += st.Overload.RateLimited
		agg.Overload.RateShedHeartbeats += st.Overload.RateShedHeartbeats
		agg.Overload.DegradedQueries += st.Overload.DegradedQueries
		agg.Overload.InlineRefits += st.Overload.InlineRefits
	}
	agg.Overload.RetryHintSeconds = c.RetryHint()
	return agg
}

// NodeStats returns each node's own counters, in node order — the per-node
// view behind the Stats aggregate, including WAL counters.
func (c *Cluster) NodeStats() []serve.Stats {
	out := make([]serve.Stats, len(c.nodes))
	for i, sv := range c.nodes {
		out[i] = sv.Stats()
	}
	return out
}

// CheckpointWAL checkpoints every WAL-backed node, returning the paths of
// the snapshots written (empty for a WAL-less cluster).
func (c *Cluster) CheckpointWAL() ([]string, error) {
	var paths []string
	for i, sv := range c.nodes {
		if c.wals[i] == nil {
			continue
		}
		path, _, err := sv.CheckpointWAL()
		if err != nil {
			return paths, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// Snapshot writes each node's snapshot to its own writer, in node order
// (snapshots are per-node streams: a node restores its own, and the ring
// re-derives the same placement). Callers wanting one archive concatenate
// at a higher layer where framing is theirs to define.
func (c *Cluster) Snapshot(writers []io.Writer) error {
	if len(writers) != len(c.nodes) {
		return fmt.Errorf("cluster: %d writers for %d nodes", len(writers), len(c.nodes))
	}
	for i, sv := range c.nodes {
		if err := sv.Snapshot(writers[i]); err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	return nil
}
