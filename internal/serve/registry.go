package serve

import "repro/internal/wire"

// registry routes jobs to shards by hashed job ID. The shard array is
// immutable after construction, so routing itself is lock-free; each shard
// serializes only its own jobs.
type registry struct {
	shards []*shard
}

// newRegistry builds cfg.Shards shards from a resolved Config (NewServer's:
// every bound already at least 1).
func newRegistry(cfg Config) *registry {
	r := &registry{shards: make([]*shard, cfg.Shards)}
	for i := range r.shards {
		r.shards[i] = newShard(cfg)
	}
	return r
}

// shardFor picks the owning shard of a job. Job IDs are often sequential
// (trace generators, schedulers), so they are mixed through a splitmix64
// finalizer before reduction to spread neighboring IDs across shards.
func (r *registry) shardFor(jobID uint64) *shard {
	return r.shards[wire.Mix64(jobID)%uint64(len(r.shards))]
}

// each visits every shard.
func (r *registry) each(f func(*shard)) {
	for _, s := range r.shards {
		f(s)
	}
}
