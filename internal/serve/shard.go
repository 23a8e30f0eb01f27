package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nurd"
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
// the hot ingest path takes the shard lock at most once per run of one job's
// buffered events (for lookup, which a body's next run of the same job
// skips), takes the job lock once per run and folds the run's counters into
// the atomics once, and a slow model refit in one job never stalls ingest or
// queries for its shard-mates — there is no global lock anywhere, and no
// long-held one either: a run holds its job lock only across frames already
// received. Lock order is always shard.mu before jobState.mu, and the shard
// lock is never held across a predictor call.
type shard struct {
	mu   sync.Mutex
	jobs map[uint64]*jobState

	// pool is this shard's bounded refit worker pool: checkpoint boundary
	// crossings capture training views under the job lock and enqueue them
	// here, so model fits never run on the ingest path (see refit.go).
	pool *refitPool

	// wal, when non-nil, receives one record per accepted mutation, staged
	// (given its LSN and its place in the log) before the owning lock (s.mu
	// for start/drop, the job's mu for a run of events) is released — the
	// ordering that makes log replay reproduce the live apply order. The
	// write itself is the Server's commit, after the lock is gone. The log
	// is one stream shared by every shard: a stage takes the log's one
	// lock, inside the job or shard lock and never the reverse, once per
	// record or once per run, and holds it only to copy the records onto
	// the stage and count their LSNs. Set once by Server.attachWAL before
	// any traffic.
	wal *wal.WAL

	// queue is the bounded ingest admission queue: every event holds one
	// slot while it applies. When full, heartbeats are shed before any
	// state is touched (see overload.go) and every other event class
	// waits for a slot.
	queue *admission

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

	// Overload taxonomy (see OverloadStats).
	shedHeartbeats atomic.Uint64
	ingestWaits    atomic.Uint64
}

// newShard builds one shard from a resolved Config (NewServer's).
func newShard(cfg Config) *shard {
	return &shard{
		jobs:  make(map[uint64]*jobState),
		pool:  new(refitPool),
		queue: newAdmission(cfg.IngestQueue),
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
	j := newJobState(spec, pred, s.pool)
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

// lockJob takes jobID's job lock and remembers the job and this shard in b,
// or reports false when the job is not registered (or was dropped before its
// lock was taken). When jobID is the job b's previous event went to, the
// lookup is skipped.
func (s *shard) lockJob(jobID uint64, b *body) bool {
	if b.job != nil && b.job.spec.JobID == jobID {
		b.job.mu.Lock()
		if !b.job.defunct {
			return true
		}
		b.job.mu.Unlock()
	}
	j, ok := s.lookup(jobID)
	if !ok {
		return false
	}
	j.mu.Lock()
	if j.defunct {
		// Dropped between our lookup and taking the job lock: the drop is
		// already in the WAL, so this event must not be applied or counted
		// — recovery could never reproduce it.
		j.mu.Unlock()
		return false
	}
	b.job, b.sh = j, s
	return true
}

// ingest applies one event to its job inside b's run (see body): the first
// event of a run takes the job lock, and body.end stages the run's WAL
// records, releases the lock and folds the job's counter deltas into the
// shard. The caller ends the run; ingest ends it itself only to open one on
// another job, before waiting for an admission slot, and after an event that
// arrived without its frame, whose record is encoded on the spot.
func (s *shard) ingest(e *wire.Event, b *body) error {
	if !s.queue.tryAcquire() {
		// Queue full. Shed heartbeats before touching any state — a shed
		// event must leave no trace (not applied, not counted, not logged)
		// so recovery replays exactly the accepted stream. Everything else
		// carries labels or protocol structure and waits for a slot
		// instead: backpressure, never loss. No lock is held across the
		// wait: the run ends first.
		if e.Kind == wire.EventHeartbeat {
			s.shedHeartbeats.Add(1)
			return fmt.Errorf("serve: event %s for job %d: %w", e.Kind, e.JobID, ErrShed)
		}
		if err := b.end(nil); err != nil {
			return err
		}
		s.ingestWaits.Add(1)
		s.queue.acquire()
	}
	defer s.queue.release()
	if !b.open || b.job.spec.JobID != e.JobID {
		if err := b.end(nil); err != nil {
			return err
		}
		if !s.lockJob(e.JobID, b) {
			return fmt.Errorf("serve: event %s for job %d: %w", e.Kind, e.JobID, ErrUnknownJob)
		}
		b.open, b.before = true, countsOf(b.job)
	}
	// Reject events the wire format could not round-trip *before* touching
	// any state. Only the in-process path can produce them (the decoder
	// bounds features already), and applying such an event while refusing
	// to log it would fork the live state from the recoverable state.
	if len(e.Features) > wire.MaxWireFeatures {
		return fmt.Errorf("serve: event %s for job %d: %d features exceed the wire cap %d",
			e.Kind, e.JobID, len(e.Features), wire.MaxWireFeatures)
	}
	// Rejected events leave no trace, counters included: handle validates
	// before mutating, so an erroring ingest is invisible to the WAL and
	// to Stats too. Accepted ones — clean applies and benign drops, which
	// still move counters — are staged before the job lock is released, so
	// the WAL's per-job record order is exactly the apply order.
	if err := b.job.handle(e); err != nil {
		if !errors.Is(err, errDropped) {
			return err
		}
		b.dropped++
	}
	b.events++
	if s.wal != nil {
		if f := b.frameOf(e); f != nil {
			b.frames = append(b.frames, f)
		} else {
			return b.end(e)
		}
	}
	return nil
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
// the extended slice. dst grows once, and each verdict is written straight
// into its slot (jobState.answer) under the job lock; the verdicts are
// copies of server state, so a caller may reuse dst across calls.
func (s *shard) query(dst []TaskVerdict, jobID uint64, taskIDs []int) ([]TaskVerdict, error) {
	j, ok := s.lookup(jobID)
	if !ok {
		return dst, fmt.Errorf("serve: query for job %d: %w", jobID, ErrUnknownJob)
	}
	dst = slices.Grow(dst, len(taskIDs))
	j.mu.Lock()
	// One slab holds every prediction this call makes: at most one per
	// running task asked about, so a job with no published model or no
	// running task allocates none. (A task ID repeated past that grows the
	// slab; the cells already pointed at stay where they are.)
	var preds []nurd.Prediction
	if j.pub != nil {
		preds = make([]nurd.Prediction, 0, min(len(taskIDs), j.running()))
	}
	n := len(dst)
	dst = dst[:n+len(taskIDs)]
	for i, id := range taskIDs {
		j.answer(&dst[n+i], id, &preds)
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
	st.Overload.IngestWaits += s.ingestWaits.Load()
	st.Overload.IngestQueueDepth += s.queue.depth()
}
