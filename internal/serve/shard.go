package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simulator"
	"repro/internal/wal"
	"repro/internal/wire"
)

// ErrUnknownJob reports an operation referencing a job ID with no
// registered (or already-dropped) state. It is errors.Is-matchable through
// every wrapping layer so transport front ends can classify it (the HTTP
// front answers 404).
var ErrUnknownJob = errors.New("unknown job")

// shard owns a disjoint subset of the jobs. The shard mutex guards only the
// job map; counters are atomics and each job's state has its own lock, so
// the hot ingest path takes the shard lock at most once (for lookup, which
// a body's run of one job's events skips) and a slow model refit in one job
// never stalls ingest or queries for its shard-mates — there is no global
// lock anywhere, and no long-held one either. Lock order is always shard.mu
// before jobState.mu, and the shard lock is never held across a predictor
// call.
type shard struct {
	mu   sync.Mutex
	jobs map[uint64]*jobState

	// pool is this shard's bounded refit worker pool: checkpoint boundary
	// crossings capture training views under the job lock and enqueue them
	// here, so model fits never run on the ingest path (see refit.go).
	pool *refitPool

	// wal, when non-nil, receives one record per accepted mutation, staged
	// (given its LSN and its place in the log) before the owning lock (s.mu
	// for start/drop, the job's mu for events) is released — the ordering
	// that makes log replay reproduce the live apply order. The write itself
	// is the Server's commit, after the lock is gone. The log is one stream
	// shared by every shard: a stage takes the log's one lock, inside the
	// job or shard lock and never the reverse, and holds it only to copy
	// the record onto the stage and count its LSN. Set once by
	// Server.attachWAL before any traffic.
	wal *wal.WAL

	// queue is the bounded ingest admission queue: every ingest holds one
	// slot for its duration. When full, heartbeats are shed before any
	// state is touched (see overload.go) and every other event class
	// waits for a slot. degradedAfter, when positive, bounds how long a
	// query waits for a job lock before answering from the stale published
	// view.
	queue         *admission
	degradedAfter time.Duration

	// Counters accumulate as events happen (not derived from live jobs) so
	// they survive DropJob's reclamation of per-job state. Durations are in
	// nanoseconds.
	events       atomic.Uint64
	dropped      atomic.Uint64
	terminations atomic.Uint64
	queries      atomic.Uint64
	refits       atomic.Uint64
	refitDur     atomic.Int64
	refitMax     atomic.Int64
	finished     atomic.Int64 // jobs whose stream has closed

	// Overload taxonomy (see OverloadStats). shedFinishes is structurally
	// zero — it exists so the finishes-are-never-shed invariant is
	// observable rather than assumed.
	shedHeartbeats atomic.Uint64
	shedFinishes   atomic.Uint64
	ingestWaits    atomic.Uint64
	degraded       atomic.Uint64
}

// newShard builds one shard from a resolved Config (NewServer's).
func newShard(cfg Config) *shard {
	return &shard{
		jobs:          make(map[uint64]*jobState),
		pool:          newRefitPool(cfg.RefitQueue),
		queue:         newAdmission(cfg.IngestQueue),
		degradedAfter: cfg.DegradedAfter,
	}
}

// lookup fetches a job under the shard lock.
func (s *shard) lookup(jobID uint64) (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[jobID]
	return j, ok
}

// startJob registers a job on this shard, staging the registration's WAL
// record before the shard lock is released so no event of this job can
// reach the WAL ahead of its spec. It returns the record's LSN (0 without a
// WAL); the caller commits it before acknowledging.
func (s *shard) startJob(spec wire.JobSpec, pred simulator.Predictor) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[spec.JobID]; ok {
		return 0, fmt.Errorf("serve: job %d already registered", spec.JobID)
	}
	j := newJobState(spec, pred)
	j.pool = s.pool
	j.staleEnabled = s.degradedAfter > 0
	var lsn uint64
	if s.wal != nil {
		var err error
		if lsn, err = s.wal.StageSpec(&spec); err != nil {
			return 0, fmt.Errorf("serve: job %d: %w", spec.JobID, err)
		}
	}
	s.jobs[spec.JobID] = j
	return lsn, nil
}

// lockJob returns jobID's job with its lock held, or false when the job is
// not registered (or was dropped before its lock was taken). b, when
// non-nil, supplies the job the previous event went to and remembers this
// one and its shard.
func (s *shard) lockJob(jobID uint64, b *body) (*jobState, bool) {
	if b != nil && b.job != nil && b.job.spec.JobID == jobID {
		b.job.mu.Lock()
		if !b.job.defunct {
			return b.job, true
		}
		b.job.mu.Unlock()
	}
	j, ok := s.lookup(jobID)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	if j.defunct {
		// Dropped between our lookup and taking the job lock: the drop is
		// already in the WAL, so this event must not be applied or counted
		// — recovery could never reproduce it.
		j.mu.Unlock()
		return nil, false
	}
	if b != nil {
		b.job, b.sh = j, s
	}
	return j, true
}

// ingest applies one event to its job, then folds the job's counter deltas
// into the shard. It returns the LSN of the event's staged WAL record (0
// when nothing was logged); the caller commits it before acknowledging.
func (s *shard) ingest(e *wire.Event, b *body) (uint64, error) {
	if !s.queue.tryAcquire() {
		// Queue full. Shed heartbeats before touching any state — a shed
		// event must leave no trace (not applied, not counted, not logged)
		// so recovery replays exactly the accepted stream. Everything else
		// carries labels or protocol structure and waits for a slot
		// instead: backpressure, never loss.
		if e.Kind == wire.EventHeartbeat {
			s.shedHeartbeats.Add(1)
			return 0, fmt.Errorf("serve: event %s for job %d: %w", e.Kind, e.JobID, ErrShed)
		}
		s.ingestWaits.Add(1)
		s.queue.acquire()
	}
	defer s.queue.release()
	j, ok := s.lockJob(e.JobID, b)
	if !ok {
		return 0, fmt.Errorf("serve: event %s for job %d: %w", e.Kind, e.JobID, ErrUnknownJob)
	}
	// Reject events the wire format could not round-trip *before* touching
	// any state. Only the in-process path can produce them (the decoder
	// bounds features already), and applying such an event while refusing
	// to log it would fork the live state from the recoverable state.
	if len(e.Features) > wire.MaxWireFeatures {
		j.mu.Unlock()
		return 0, fmt.Errorf("serve: event %s for job %d: %d features exceed the wire cap %d",
			e.Kind, e.JobID, len(e.Features), wire.MaxWireFeatures)
	}
	termBefore, refitsBefore, durBefore, wasDone := j.terminated, j.refits, j.refitDur, j.done
	reclassifiedBefore := j.reclassified
	err := j.handle(e)
	dropped := errors.Is(err, errDropped)
	// Rejected events leave no trace, counters included: handle validates
	// before mutating, so an erroring ingest is invisible to the WAL and
	// must be invisible to Stats too.
	accepted := err == nil || dropped
	// Accepted mutations (clean applies and benign drops, which still move
	// counters) are staged before the job lock is released, so the WAL's
	// per-job record order is exactly the apply order. A failed stage
	// surfaces as the ingest error: the mutation is applied in memory but
	// will never be durable, so it must not be acknowledged.
	var lsn uint64
	var walErr error
	if s.wal != nil && accepted {
		lsn, walErr = s.wal.StageEvent(e, b.frameOf(e)...)
	}
	termDelta := j.terminated - termBefore
	refitDelta := j.refits - refitsBefore
	durDelta := j.refitDur - durBefore
	// Applying a refit inside handle can reclassify earlier-accepted
	// finishes of freshly terminated tasks as drops, on top of the event's
	// own benign drop.
	droppedDelta := j.reclassified - reclassifiedBefore
	if dropped {
		droppedDelta++
	}
	maxDur := j.refitMax
	nowDone := j.done
	j.mu.Unlock()

	if accepted {
		s.events.Add(1)
	}
	if droppedDelta > 0 {
		s.dropped.Add(droppedDelta)
	}
	if termDelta > 0 {
		s.terminations.Add(uint64(termDelta))
	}
	if refitDelta > 0 {
		s.refits.Add(uint64(refitDelta))
		s.refitDur.Add(int64(durDelta))
		atomicMax(&s.refitMax, int64(maxDur))
	}
	if !wasDone && nowDone {
		// One increment per closure, whichever path closed it (job-finish
		// or predictor failure).
		s.finished.Add(1)
	}
	if dropped || err == nil {
		return lsn, walErr
	}
	return 0, err
}

// atomicMax raises v to at least x.
func atomicMax(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// query appends a batch of per-task verdicts for one job to dst and returns
// the extended slice; the verdicts are copies, so a caller may reuse dst
// across calls. With degraded queries enabled, a query that cannot take the
// job lock within degradedAfter is answered from the job's stale published
// view (last applied generation, Stale-flagged) instead of queueing behind
// whatever holds the lock — a refit drain, an ingest burst — so query
// latency stays bounded under overload. Jobs with no published view yet (no
// refit has applied) fall through to the blocking path: there is nothing
// stale to serve, and pre-warmup locks are never held long.
func (s *shard) query(dst []TaskVerdict, jobID uint64, taskIDs []int) ([]TaskVerdict, error) {
	j, ok := s.lookup(jobID)
	if !ok {
		return dst, fmt.Errorf("serve: query for job %d: %w", jobID, ErrUnknownJob)
	}
	dst = slices.Grow(dst, len(taskIDs))
	if s.degradedAfter > 0 && !lockWithin(&j.mu, s.degradedAfter) {
		if sv := j.stale.Load(); sv != nil {
			for _, id := range taskIDs {
				if id >= 0 && id < len(sv.verdicts) {
					dst = append(dst, sv.verdicts[id])
				} else {
					dst = append(dst, TaskVerdict{TaskID: id, Stale: true, AsOfCheckpoint: sv.checkpoint})
				}
			}
			s.degraded.Add(uint64(len(taskIDs)))
			s.queries.Add(uint64(len(taskIDs)))
			return dst, nil
		}
		j.mu.Lock()
	} else if s.degradedAfter <= 0 {
		j.mu.Lock()
	}
	for _, id := range taskIDs {
		dst = append(dst, j.verdict(id))
	}
	j.mu.Unlock()
	s.queries.Add(uint64(len(taskIDs)))
	return dst, nil
}

// report summarizes one job.
func (s *shard) report(jobID uint64) (*JobReport, error) {
	j, ok := s.lookup(jobID)
	if !ok {
		return nil, fmt.Errorf("serve: report for job %d: %w", jobID, ErrUnknownJob)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report(), nil
}

// dropJob removes a completed job's state (memory reclamation for
// long-running servers), reporting its task count so the Server can release
// the job's registration budget, and the LSN of the staged drop record for
// the Server to commit. It refuses to drop a live job. The drop record is
// staged and the job marked defunct under the job lock, so a concurrent
// ingest that already looked the job up either stages its event strictly
// before the drop record or observes defunct and rejects — WAL order always
// matches apply order.
func (s *shard) dropJob(jobID uint64) (numTasks int, lsn uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[jobID]
	if !ok {
		return 0, 0, fmt.Errorf("serve: drop of job %d: %w", jobID, ErrUnknownJob)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.done {
		return 0, 0, fmt.Errorf("serve: job %d still streaming; finish it before dropping", jobID)
	}
	if s.wal != nil {
		if lsn, err = s.wal.StageDrop(jobID); err != nil {
			return 0, 0, fmt.Errorf("serve: drop of job %d: %w", jobID, err)
		}
	}
	j.defunct = true
	delete(s.jobs, jobID)
	s.finished.Add(-1)
	return j.spec.NumTasks, lsn, nil
}

// jobIDs lists this shard's registered jobs.
func (s *shard) jobIDs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint64, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	return ids
}

// addStats accumulates this shard's counters into st.
func (s *shard) addStats(st *Stats) {
	s.mu.Lock()
	njobs := len(s.jobs)
	s.mu.Unlock()
	st.Jobs += njobs
	st.ActiveJobs += njobs - int(s.finished.Load())
	st.Events += s.events.Load()
	st.DroppedEvents += s.dropped.Load()
	st.Terminations += s.terminations.Load()
	st.Queries += s.queries.Load()
	st.Refits += s.refits.Load()
	st.RefitTotal += time.Duration(s.refitDur.Load())
	if m := time.Duration(s.refitMax.Load()); m > st.RefitMax {
		st.RefitMax = m
	}
	q, inflight := s.pool.depths()
	st.RefitQueue += q
	st.RefitInflight += inflight
	st.RefitLag += int(s.pool.lag.Load())
	st.WarmFits += s.pool.warmFits.Load()
	st.ScratchFits += s.pool.scratchFits.Load()
	st.Overload.ShedHeartbeats += s.shedHeartbeats.Load()
	st.Overload.ShedFinishes += s.shedFinishes.Load()
	st.Overload.IngestWaits += s.ingestWaits.Load()
	st.Overload.DegradedQueries += s.degraded.Load()
	st.Overload.InlineRefits += s.pool.inlineFits.Load()
	st.Overload.IngestQueueDepth += s.queue.depth()
}
