package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/nurd"
	"repro/internal/simulator"
	"repro/internal/wire"
)

// taskState tracks one task of a streamed job.
type taskState struct {
	started bool
	start   float64
	// features is the task's feature row as its latest heartbeat observed
	// it: nil until the first heartbeat, which allocates it at schema width,
	// and overwritten in place by every later one. Nothing else aliases it —
	// a checkpoint view copies it, and a heartbeat's own slice stays its
	// sender's — so it changes only under the job lock.
	features   []float64
	finished   bool
	latency    float64
	terminated bool
	flaggedAt  int // checkpoint index of termination
}

// jobState is one job's full serving state. Its owning shard serializes
// access through mu, which is per-job so that a slow model refit stalls
// only this job's events and queries, never its shard-mates'.
type jobState struct {
	mu   sync.Mutex
	spec wire.JobSpec
	pred simulator.Predictor

	tasks  []taskState // indexed by TaskID
	clock  float64     // maximum event time seen
	nextCP int         // next checkpoint boundary to fire (1..Checkpoints)
	warm   int         // finished-task count gating prediction
	done   bool
	failed bool // done because the predictor errored, not job-finish

	started, finished, terminated int

	refits     int
	refitDur   time.Duration
	refitMax   time.Duration
	checkpoint int // last checkpoint fired

	// reclassified counts accepted finishes a later kill order turned into
	// drops (see applyRefit); the owning shard folds the delta into its
	// dropped-event counter.
	reclassified uint64

	// defunct marks a job DropJob has removed. An ingest that looked the
	// job up just before the drop must observe it (under j.mu) and reject
	// the event instead of applying and logging it: the drop's WAL record
	// precedes any append the latecomer would make, so accepting it would
	// acknowledge a mutation recovery can never replay.
	defunct bool

	// pool is the owning shard's refit worker pool.
	pool *refitPool

	// refitCh is non-nil while a captured checkpoint view's fit is pending
	// (queued or executing); pending is that view. The result is received
	// and applied under j.mu at the next boundary crossing (or the
	// job-finish drain) — see refit.go for why application waits for a
	// stream-defined position instead of the fit's completion. At most one
	// refit is ever in flight per job, which is also what makes handing the
	// predictor to the worker without a lock safe. The pending view is the
	// only one a job keeps: a job's state is a function of its accepted
	// stream, so recovery replays the stream instead of stored views.
	refitCh chan refitResult
	pending *simulator.Checkpoint

	// pub is the published model: a shallow copy of the predictor's
	// nurd.Model taken when a refit's outcome is applied. Queries read pub,
	// never the live predictor, so an inflight background fit cannot race a
	// Query; staleness is bounded by one checkpoint interval and reported as
	// the generation (== refits) in JobReport.
	pub *nurd.Model

	// warmFits / scratchFits split refits by fit strategy.
	warmFits, scratchFits uint64
}

func newJobState(spec wire.JobSpec, pred simulator.Predictor, pool *refitPool) *jobState {
	pred.Reset()
	return &jobState{
		spec:   spec,
		pred:   pred,
		pool:   pool,
		tasks:  make([]taskState, spec.NumTasks),
		nextCP: 1,
		warm:   simulator.WarmCount(spec.NumTasks, spec.WarmFrac),
	}
}

// handle applies one event. Checkpoint boundaries strictly before the
// event's timestamp fire first, so every refit sees exactly the state that
// existed at its horizon — the property that makes the streamed protocol
// coincide with simulator.Evaluate's replay.
//
// Validation runs to completion before the first state change (before any
// boundary fires): an event handle rejects leaves no trace at all. The WAL
// depends on this — rejected events are never logged, so a mutation an
// erroring event caused would be invisible to recovery and fork the live
// server from its recoverable image. The validated conditions (task range,
// started/finished flags, schema width) are all invariant under checkpoint
// firing, which only terminates tasks; termination-dependent *drop*
// decisions stay in the apply phase below, after boundaries fire, exactly
// as the offline protocol orders them.
func (j *jobState) handle(e *wire.Event) error {
	if j.done {
		if j.failed {
			// The job was closed by a predictor failure, not by the caller;
			// its stream is still in flight and must keep draining without
			// erroring (a shared ingest feed carries other jobs' events too).
			return errDropped
		}
		return fmt.Errorf("serve: job %d: event %s after job-finish", j.spec.JobID, e.Kind)
	}
	var ts *taskState
	if e.Kind != wire.EventJobFinish {
		if e.TaskID < 0 || e.TaskID >= len(j.tasks) {
			return fmt.Errorf("serve: job %d: task %d out of range [0,%d)",
				j.spec.JobID, e.TaskID, len(j.tasks))
		}
		ts = &j.tasks[e.TaskID]
		switch e.Kind {
		case wire.EventTaskStart:
			if ts.started {
				return fmt.Errorf("serve: job %d: duplicate start for task %d", j.spec.JobID, e.TaskID)
			}
		case wire.EventHeartbeat:
			if !ts.started {
				return fmt.Errorf("serve: job %d: heartbeat for unstarted task %d", j.spec.JobID, e.TaskID)
			}
			if !ts.terminated && len(e.Features) != len(j.spec.Schema) {
				return fmt.Errorf("serve: job %d task %d: %d features for schema of %d",
					j.spec.JobID, e.TaskID, len(e.Features), len(j.spec.Schema))
			}
		case wire.EventTaskFinish:
			if !ts.started {
				return fmt.Errorf("serve: job %d: finish for unstarted task %d", j.spec.JobID, e.TaskID)
			}
			if !ts.terminated && ts.finished {
				return fmt.Errorf("serve: job %d: duplicate finish for task %d", j.spec.JobID, e.TaskID)
			}
		default:
			return fmt.Errorf("serve: job %d: unknown event kind %d", j.spec.JobID, e.Kind)
		}
	}

	t := e.Time
	if t < j.clock {
		// Mild monitoring-pipeline jitter: never rewind the job clock.
		t = j.clock
	}
	for !j.done && j.nextCP <= j.spec.Checkpoints && t > j.spec.TauRun(j.nextCP) {
		j.fireCheckpoint()
	}
	if j.done {
		// The predictor failed on a boundary fired above: the job is now
		// closed, no further boundaries run, and the triggering event
		// itself is drained as a drop.
		return errDropped
	}
	j.clock = t

	if e.Kind == wire.EventJobFinish {
		for !j.done && j.nextCP <= j.spec.Checkpoints {
			j.fireCheckpoint()
		}
		// Drain the last boundary's background fit: a closing job must leave
		// no refit in flight, so final reports, queries, and snapshots (and
		// DropJob's reclamation) see every checkpoint's outcome applied.
		j.applyRefit()
		j.done = true
		return nil
	}
	switch e.Kind {
	case wire.EventTaskStart:
		ts.started = true
		ts.start = e.Time
		j.started++
	case wire.EventHeartbeat:
		if ts.terminated {
			// The monitoring pipeline may lag a termination (including one
			// a boundary above just issued); late observations for killed
			// tasks are dropped, not an error.
			return errDropped
		}
		// Heartbeats for finished tasks are accepted: the offline protocol
		// (simulator.At) re-observes finished tasks' features at every
		// checkpoint, and the streamed protocol must see the same training
		// rows to stay equivalent. Pipelines that freeze features at
		// completion simply stop heartbeating, which degrades gracefully.
		if ts.features == nil {
			ts.features = make([]float64, len(j.spec.Schema))
		}
		copy(ts.features, e.Features)
	case wire.EventTaskFinish:
		if ts.terminated {
			return errDropped
		}
		ts.finished = true
		ts.latency = e.Latency
		j.finished++
	}
	return nil
}

// errDropped marks a benignly ignored event (late heartbeat/finish for a
// terminated task); shards count these instead of surfacing them.
var errDropped = fmt.Errorf("serve: event dropped")

// inView reports whether task ts has a row in the checkpoint view at horizon
// tau, and on which side, exactly as simulator.At decides it: finished iff
// completion is at or before the horizon, terminated tasks excluded, and
// tasks that have started but never heartbeat invisible — monitoring has not
// observed them yet.
func (ts *taskState) inView(tau float64) (in, finished bool) {
	if !ts.started || ts.terminated || ts.start > tau || ts.features == nil {
		return false, false
	}
	return true, ts.finished && ts.start+ts.latency <= tau
}

// viewCounts sizes checkpoint k's view without building it: the warm gate
// needs only the two counts, and snapshot allocates from them.
func (j *jobState) viewCounts(k int) (finished, running int) {
	tau := j.spec.TauRun(k)
	for id := range j.tasks {
		if in, fin := j.tasks[id].inView(tau); fin {
			finished++
		} else if in {
			running++
		}
	}
	return finished, running
}

// snapshot materializes checkpoint k's view of the job — tasks in ID order,
// per-task features as most recently observed — into slices sized by
// viewCounts' result for the same k. The rows are copies, cut from one
// buffer per view, so the fit that reads them on a refit worker, off the job
// lock, never shares memory with a task row a later heartbeat overwrites.
func (j *jobState) snapshot(k, finished, running int) *simulator.Checkpoint {
	tau := j.spec.TauRun(k)
	cp := &simulator.Checkpoint{
		Index:             k,
		Norm:              float64(k) / float64(j.spec.Checkpoints),
		TauRun:            tau,
		TauStra:           j.spec.TauStra,
		StragglerQuantile: j.spec.StragglerQuantile,
		RunningIDs:        make([]int, 0, running),
		RunningX:          make([][]float64, 0, running),
		RunningElapsed:    make([]float64, 0, running),
	}
	if finished > 0 {
		// A negative WarmFrac opens the gate with nothing finished; that side
		// then stays nil.
		cp.FinishedIDs = make([]int, 0, finished)
		cp.FinishedX = make([][]float64, 0, finished)
		cp.FinishedY = make([]float64, 0, finished)
	}
	width := len(j.spec.Schema)
	rows := make([]float64, (finished+running)*width)
	for id := range j.tasks {
		ts := &j.tasks[id]
		in, fin := ts.inView(tau)
		if !in {
			continue
		}
		row := rows[:width:width]
		rows = rows[width:]
		copy(row, ts.features)
		if fin {
			cp.FinishedIDs = append(cp.FinishedIDs, id)
			cp.FinishedX = append(cp.FinishedX, row)
			cp.FinishedY = append(cp.FinishedY, ts.latency)
		} else {
			cp.RunningIDs = append(cp.RunningIDs, id)
			cp.RunningX = append(cp.RunningX, row)
			cp.RunningElapsed = append(cp.RunningElapsed, tau-ts.start)
		}
	}
	return cp
}

// fireCheckpoint evaluates the next checkpoint boundary. It first applies
// the previous boundary's refit outcome (waiting for its background fit if
// it is still running — the only place ingest can ever wait on training, and
// only when a fit outlasts a whole checkpoint interval), then captures the
// new boundary's training view and hands it to the shard's refit pool. The
// captured view therefore excludes every task terminated by earlier
// checkpoints' verdicts, exactly as the offline protocol orders it, which is
// why the asynchronous pipeline stays bit-identical to simulator.Evaluate.
// Predictor errors (surfacing at apply time) mark the job done rather than
// wedging the shard.
func (j *jobState) fireCheckpoint() {
	j.applyRefit()
	if j.done {
		// The pending fit failed; the job is closed and fires no further
		// boundaries.
		return
	}
	k := j.nextCP
	j.nextCP++
	j.checkpoint = k
	// The warm gate reads the counts alone: a boundary it turns away builds
	// no view.
	finished, running := j.viewCounts(k)
	if finished < j.warm || running == 0 {
		return
	}
	j.startRefit(j.snapshot(k, finished, running))
}

// startRefit hands a captured view to the refit pipeline. The caller holds
// j.mu and has already applied any previous refit, so the predictor is idle
// and the worker takes exclusive ownership of it until the result lands.
func (j *jobState) startRefit(cp *simulator.Checkpoint) {
	ch := make(chan refitResult, 1)
	j.refitCh = ch
	j.pending = cp
	t := refitTask{pred: j.pred, cp: cp, ch: ch}
	j.pool.lag.Add(1)
	j.pool.enqueue(t)
}

// applyRefit applies the pending refit's outcome under the job lock:
// terminations (the paper's protocol — predicted stragglers are killed and
// never rejoin either set), refit counters, and the published model swap
// that advances the query-visible generation. It blocks on the background
// fit only if the fit is still running when the next boundary arrives. A
// predictor that cannot act (error or verdict-shape mismatch) leaves the job
// to run unmitigated: the job closes as failed and the rest of its stream
// drains as dropped events. No-op when nothing is pending.
func (j *jobState) applyRefit() {
	if j.refitCh == nil {
		return
	}
	res := <-j.refitCh
	cp := j.pending
	j.refitCh, j.pending = nil, nil
	j.pool.lag.Add(-1)
	j.pool.warmFits.Add(res.warm)
	j.pool.scratchFits.Add(res.scratch)
	j.refits++
	j.refitDur += res.dur
	if res.dur > j.refitMax {
		j.refitMax = res.dur
	}
	j.warmFits += res.warm
	j.scratchFits += res.scratch
	if res.err != nil || len(res.verdicts) != len(cp.RunningIDs) {
		j.done = true
		j.failed = true
		return
	}
	for i, v := range res.verdicts {
		if !v {
			continue
		}
		id := cp.RunningIDs[i]
		ts := &j.tasks[id]
		if ts.finished {
			// The task's finish raced the inflight fit and was accepted
			// before the kill order landed. The termination supersedes it:
			// un-finishing (and reclassifying the event as dropped) keeps
			// the task's verdict semantics — Flagged, never Finished — and
			// the finished counter identical to a protocol that killed the
			// task at its flagging checkpoint. Raced *heartbeats* need no
			// such reconciliation: they only refresh features no training
			// view or verdict will ever read again (they do stay counted as
			// accepted rather than dropped — the drop counter describes the
			// pipeline's own accept/drop decisions, which are deterministic
			// either way).
			ts.finished = false
			j.finished--
			j.reclassified++
		}
		ts.terminated = true
		ts.flaggedAt = cp.Index
		j.terminated++
	}
	j.publish()
}

// publish swaps the query-visible model to the predictor's current one. The
// copy is shallow: nurd.Model's refits replace the fitted sub-model pointers
// rather than mutating them, so the copied struct is immutable from the
// moment it is published even while the predictor trains its successor.
func (j *jobState) publish() {
	nm, ok := j.pred.(nurdModel)
	if !ok {
		return
	}
	if m := nm.Model(); m != nil {
		pub := *m
		j.pub = &pub
	}
}

// pendingRefits reports captured-but-unapplied refits (0 or 1).
func (j *jobState) pendingRefits() int {
	if j.refitCh != nil {
		return 1
	}
	return 0
}

// nurdModel exposes the underlying nurd.Model of predictors that have one
// (predictor.NURDPredictor does); applyRefit publishes a copy of it for
// Query to answer ad-hoc latency predictions between checkpoints.
type nurdModel interface {
	Model() *nurd.Model
}

// running counts the tasks that have started and neither finished nor been
// terminated: the most predictions one pass over the tasks can make.
func (j *jobState) running() int { return j.started - j.finished - j.terminated }

// answer writes the verdict of one query against the job's current state
// into *v, every field of it, so v may be a reused slot. A running task's
// Prediction is appended to *preds and the verdict points at that cell: a
// caller that gives *preds room for every prediction it may need pays one
// allocation for all of them, and no cell moves once pointed at.
func (j *jobState) answer(v *TaskVerdict, taskID int, preds *[]nurd.Prediction) {
	if taskID < 0 || taskID >= len(j.tasks) {
		*v = TaskVerdict{TaskID: taskID}
		return
	}
	ts := &j.tasks[taskID]
	*v = TaskVerdict{TaskID: taskID, Known: ts.started, Finished: ts.finished, Flagged: ts.terminated, FlaggedAt: ts.flaggedAt}
	switch {
	case ts.terminated:
		v.Straggler = true
	case ts.finished:
		v.Straggler = ts.latency >= j.spec.TauStra
	case !ts.started || ts.features == nil || j.pub == nil:
		// Queries are answered from the published model — the generation
		// whose refit outcome has been applied — never from the live
		// predictor, which a pool worker may be training concurrently.
	default:
		pr, err := j.pub.Predict(ts.features)
		if err != nil {
			return
		}
		*preds = append(*preds, pr)
		v.Prediction = &(*preds)[len(*preds)-1]
		v.Straggler = pr.Adjusted >= j.spec.TauStra
	}
}

// report summarizes the job.
func (j *jobState) report() *JobReport {
	r := &JobReport{
		Spec:          j.spec,
		Done:          j.done,
		Failed:        j.failed,
		Checkpoint:    j.checkpoint,
		Started:       j.started,
		Finished:      j.finished,
		Terminated:    j.terminated,
		Refits:        j.refits,
		RefitTotal:    j.refitDur,
		RefitMax:      j.refitMax,
		Generation:    j.refits,
		PendingRefits: j.pendingRefits(),
		WarmFits:      j.warmFits,
		ScratchFits:   j.scratchFits,
		PredictedAt:   make(map[int]int, j.terminated),
	}
	for id := range j.tasks {
		if j.tasks[id].terminated {
			r.PredictedAt[id] = j.tasks[id].flaggedAt
		}
	}
	return r
}
