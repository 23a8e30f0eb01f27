package serve

// overload.go is the overload-control subsystem: what the server does when
// offered load exceeds what it can absorb, decided by policy instead of by
// whichever queue happens to fill first.
//
// The taxonomy, in the order a request meets it:
//
//	rate limit (HTTP front)   per-client token buckets. A client whose
//	                          bucket cannot pay for a request is refused
//	                          atomically at request start (429, nothing
//	                          applied — always safe to retry); mid-batch,
//	                          an empty bucket sheds heartbeats and lets
//	                          everything else run the bucket negative, so
//	                          a partially applied batch is never rejected.
//	ingest queue (per shard)  a bounded admission semaphore. When full,
//	                          heartbeats are shed (ErrShed) before any
//	                          state is touched; starts, finishes, and
//	                          job-finishes are never shed — they carry
//	                          labels and protocol structure — and instead
//	                          wait for a slot (backpressure).
//	refit queue (per shard)   bounded by count. At the bound a new fit
//	                          runs inline on the ingesting goroutine
//	                          (counted, and applied at the same stream
//	                          position a pooled fit would be) instead of
//	                          growing the queue without limit.
//	degraded queries          a query that cannot take the job lock within
//	                          Config.DegradedAfter is answered from the
//	                          last published generation's precomputed
//	                          verdicts, flagged Stale, instead of queueing
//	                          behind a refit or an ingest burst.
//
// Shedding happens before lookup, validation, or logging, so a shed event
// leaves no trace anywhere: not in state, not in counters, not in the WAL.
// Recovery therefore replays exactly the accepted stream — the equivalence
// and torture tests hold with shedding enabled because the durable log IS
// the post-shedding stream.
//
// A shed heartbeat is coalesced, not lost, in the only sense that matters
// to the model: heartbeats carry a task's latest feature observation and
// newer ones supersede older ones wholesale, so dropping one under pressure
// means the task's next accepted heartbeat delivers the fresher view (or
// the task finishes, which carries its label regardless). Finishes are never
// shed precisely because they are the one event class whose information —
// the task's true latency label — cannot be recovered from later traffic.

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrShed reports an event refused by load shedding: the shard's ingest
// queue was at its bound and the event is of a sheddable class (heartbeats
// only). It is errors.Is-matchable through every wrapping layer; the HTTP
// front end counts shed frames in IngestResult.Shed and continues the batch
// rather than failing it. A shed event left no trace — it was not applied,
// not counted, and not logged.
var ErrShed = errors.New("event shed under overload")

// Overload-control defaults. The ingest bound is per shard and counts
// admitted-but-unfinished ingest calls, so it needs to cover only a burst of
// concurrent requests, not a backlog; the refit bound covers the pool queue,
// whose depth is already naturally limited to the shard's job population.
// Both defaults are far above what steady traffic reaches — they exist to
// bound the pathological case, not to shape the normal one.
const (
	// DefaultIngestQueue is the per-shard ingest admission bound.
	DefaultIngestQueue = 256
	// DefaultRefitQueue is the per-shard refit queue bound.
	DefaultRefitQueue = 64
)

// RetryAfterOutageSeconds is the Retry-After hint for 503 responses: a
// wedged or closed write-ahead log (disk full, I/O error, shutdown) clears
// on operator timescales, not queue-drain timescales, so the hint is long
// and fixed — unlike transient 429 throttling, whose hint tracks live load
// (Server.RetryHint).
const RetryAfterOutageSeconds = 30

// MaxRetryHintSeconds caps the load-derived transient back-off hint.
const MaxRetryHintSeconds = 10

// OverloadStats is the overload-control taxonomy, aggregated across shards
// (and, for the rate-limit counters, the HTTP front). All counters are
// cumulative since server start.
type OverloadStats struct {
	// ShedHeartbeats counts heartbeats refused at saturated ingest queues.
	// Each is coalesced into its task's next accepted observation (newer
	// features supersede older ones wholesale) or dropped outright if none
	// arrives.
	ShedHeartbeats uint64
	// ShedFinishes is structurally zero — finishes carry labels and are
	// never shed. The counter exists so the invariant is observable, not
	// assumed.
	ShedFinishes uint64
	// IngestWaits counts non-sheddable events (starts, finishes,
	// job-finishes) that had to wait for an ingest-queue slot: backpressure
	// applied instead of shedding.
	IngestWaits uint64
	// IngestQueueDepth is a live gauge: admitted ingest calls currently
	// holding queue slots, summed across shards. IngestQueueBound is the
	// per-shard bound.
	IngestQueueDepth int
	IngestQueueBound int
	// RateLimited counts ingest requests refused atomically at request
	// start by per-client token buckets; RateShedHeartbeats counts
	// heartbeat frames shed mid-batch at empty buckets. Both are zero
	// unless Config.ClientRate is set (they are HTTP-front counters, so
	// only /stats responses carry them — in-process Stats() reports 0).
	RateLimited        uint64
	RateShedHeartbeats uint64
	// DegradedQueries counts task verdicts answered from the stale
	// published view because the job lock was not free within
	// Config.DegradedAfter.
	DegradedQueries uint64
	// InlineRefits counts fits run on the ingest path because the shard's
	// refit queue was at its bound; RefitQueueBound is that bound.
	InlineRefits    uint64
	RefitQueueBound int
	// RetryHintSeconds is the current load-derived Retry-After hint
	// attached to transient 429 responses (see Server.RetryHint).
	RetryHintSeconds int
}

// String renders the taxonomy compactly.
func (o OverloadStats) String() string {
	return fmt.Sprintf("shed_hb=%d shed_finish=%d waits=%d queue=%d/%d rate_limited=%d rate_shed=%d degraded=%d inline_refits=%d retry_hint=%ds",
		o.ShedHeartbeats, o.ShedFinishes, o.IngestWaits, o.IngestQueueDepth, o.IngestQueueBound,
		o.RateLimited, o.RateShedHeartbeats, o.DegradedQueries, o.InlineRefits, o.RetryHintSeconds)
}

// lockWithin tries to take mu, giving up after d. It spins on TryLock with
// short sleeps rather than arming a timer per query: d is a few
// milliseconds, and the common case (lock free, or freed within a sleep or
// two) must stay allocation-free on the query path.
func lockWithin(mu *sync.Mutex, d time.Duration) bool {
	if mu.TryLock() {
		return true
	}
	deadline := time.Now().Add(d)
	wait := 50 * time.Microsecond
	for {
		time.Sleep(wait)
		if mu.TryLock() {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		if wait < time.Millisecond {
			wait *= 2
		}
	}
}

// staleView is a job's precomputed degraded-query answer: every task's
// verdict as of the last applied refit, swapped in atomically
// so the degraded path reads it without any lock. Built only when
// Config.DegradedAfter enables degraded queries.
type staleView struct {
	checkpoint int
	verdicts   []TaskVerdict // indexed by TaskID; each has Stale set
}
