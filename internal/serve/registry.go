package serve

import "repro/internal/wire"

// registry routes jobs to shards by hashed job ID. The shard array is
// immutable after construction, so routing itself is lock-free; each shard
// serializes only its own jobs.
type registry struct {
	shards []*shard
}

func newRegistry(n int, sc shardConfig) *registry {
	if n < 1 {
		n = 1
	}
	r := &registry{shards: make([]*shard, n)}
	for i := range r.shards {
		r.shards[i] = newShard(sc)
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
