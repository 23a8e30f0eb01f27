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
//	ingest queue (per shard)  a bounded occupancy counter (admission):
//	                          one compare-and-swap admits an event. When
//	                          full, heartbeats are shed (ErrShed) before
//	                          any state is touched; starts, finishes, and
//	                          job-finishes are never shed — they carry
//	                          labels and protocol structure — and instead
//	                          wait in line, each handed the next freed
//	                          slot (backpressure).
//	refit queue (per shard)   no bound of its own: a job queues its next
//	                          view only after applying its previous fit,
//	                          so the queue holds at most one view per job,
//	                          and ingest waits on a fit only at that job's
//	                          next boundary (jobState.applyRefit).
//	queries                   no queue and no bound: a query takes its
//	                          job's lock and answers live, waiting only on
//	                          what holds that lock (a run of that job's
//	                          events, or a boundary that applies a fit).
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
	"sync/atomic"
)

// ErrShed reports an event refused by load shedding: the shard's ingest
// queue was at its bound and the event is of a sheddable class (heartbeats
// only). It is errors.Is-matchable through every wrapping layer; the HTTP
// front end counts shed frames in IngestResult.Shed and continues the batch
// rather than failing it. A shed event left no trace — it was not applied,
// not counted, and not logged.
var ErrShed = errors.New("event shed under overload")

// DefaultIngestQueue is the per-shard ingest admission bound. It counts
// admitted-but-unfinished ingest calls, so it needs to cover only a burst of
// concurrent requests, not a backlog; it is far above what steady traffic
// reaches — it exists to bound the pathological case, not to shape the
// normal one.
const DefaultIngestQueue = 256

// RetryAfterOutageSeconds is the Retry-After hint for 503 responses: a
// wedged or closed write-ahead log (disk full, I/O error, shutdown) clears
// on operator timescales, not queue-drain timescales, so the hint is long
// and fixed.
const RetryAfterOutageSeconds = 30

// OverloadStats is the overload-control taxonomy, aggregated across shards
// (and, for the rate-limit counters, the HTTP front). All counters are
// cumulative since server start.
type OverloadStats struct {
	// ShedHeartbeats counts heartbeats refused at saturated ingest queues.
	// Each is coalesced into its task's next accepted observation (newer
	// features supersede older ones wholesale) or dropped outright if none
	// arrives.
	ShedHeartbeats uint64
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
}

// String renders the taxonomy compactly.
func (o OverloadStats) String() string {
	return fmt.Sprintf("shed_hb=%d waits=%d queue=%d/%d rate_limited=%d rate_shed=%d",
		o.ShedHeartbeats, o.IngestWaits, o.IngestQueueDepth, o.IngestQueueBound,
		o.RateLimited, o.RateShedHeartbeats)
}

// admission is a shard's bounded ingest queue. n counts the calls holding a
// slot plus the callers waiting for one, so min(n, bound) slots are held and
// max(n-bound, 0) callers wait. Admitting an event is a compare-and-swap
// that refuses at the bound; releasing is one Add(-1). Only the full-queue
// path takes mu: a waiter takes a ticket there, and a release that finds
// one waiting — n was above the bound — hands its slot on instead of
// freeing it, so n stays at the bound, tryAcquire keeps refusing a
// heartbeat that arrives meanwhile, and the waiters are admitted in ticket
// order.
type admission struct {
	n     atomic.Int64
	bound int64

	mu     sync.Mutex
	wake   sync.Cond // L is &mu
	ticket uint64    // tickets handed to waiters
	served uint64    // slots handed on: ticket t is admitted once served > t
}

func newAdmission(bound int) *admission {
	a := &admission{bound: int64(bound)}
	a.wake.L = &a.mu
	return a
}

// tryAcquire takes a slot if one is free, without waiting.
func (a *admission) tryAcquire() bool {
	for {
		n := a.n.Load()
		if n >= a.bound {
			return false
		}
		if a.n.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// acquire takes a slot, waiting behind every earlier waiter for one.
func (a *admission) acquire() {
	if a.n.Add(1) <= a.bound {
		return
	}
	a.mu.Lock()
	t := a.ticket
	a.ticket++
	for a.served <= t {
		a.wake.Wait()
	}
	a.mu.Unlock()
}

// release gives up a slot: to the first waiter when there is one. A waiter
// takes its ticket and enters Wait in one hold of mu, so the cond's wake
// order is ticket order, and the one Signal wakes exactly the ticket this
// release serves (or nobody, when that waiter has not taken its ticket yet
// and will find it served).
func (a *admission) release() {
	if a.n.Add(-1) < a.bound {
		return
	}
	a.mu.Lock()
	a.served++
	a.wake.Signal()
	a.mu.Unlock()
}

// depth is the number of slots held.
func (a *admission) depth() int { return int(min(a.n.Load(), a.bound)) }
