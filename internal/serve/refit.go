package serve

// refit.go is the asynchronous refit pipeline: the machinery that moves model
// training off the ingest path.
//
// A refit takes ~50ms at 300 tasks; run inside the per-job lock it would
// stall that job's ingest and queries while the model trained. So a boundary
// crossing only captures the training view (O(tasks)) and hands it to the
// owning shard's worker pool; the fit runs outside every lock,
// and its outcome — the terminations it orders and the new model — is applied
// at the *next* boundary crossing, under the job lock, before the next view
// is captured.
//
// Applying at the next boundary rather than the moment the fit completes is
// what keeps the pipeline deterministic: every externally visible state
// change (terminations, accept/drop decisions for late events, the published
// model generation) happens at a position defined by the event stream, never
// by worker scheduling. That determinism is the property the rest of the
// system leans on — scratch-mode serving stays bit-identical to the offline
// Table 3 NURD path, and replaying the accepted stream — WAL recovery, a
// snapshot restore — reproduces the live run, a fit in flight at the cut
// included (the replay captures the same view at the same boundary).
//
// Between boundaries, queries serve the last *published* model generation — a
// shallow copy swapped in at apply time — so an inflight background fit never
// races a Query and staleness is bounded by one checkpoint interval and
// observable through Report.Generation / the Stats refit-pipeline gauges.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simulator"
)

// refitCounter is implemented by predictors that can report how many of
// their refits warm-started the underlying model vs fitted it from scratch
// (predictor.NURDPredictor does); the pipeline reads it for Stats.
type refitCounter interface {
	RefitCounts() (warm, scratch uint64)
}

// refitResult is a background fit's outcome, delivered to the job through a
// single-buffered channel so the worker never blocks on a slow consumer.
type refitResult struct {
	verdicts []bool
	err      error
	dur      time.Duration
	// warm / scratch are this cycle's fit-count deltas (from refitCounter).
	warm, scratch uint64
}

// refitTask is one captured checkpoint view awaiting its fit. The predictor
// travels with the task: a job has at most one refit in flight, so the worker
// owns the predictor's internal state exclusively until it delivers the
// result — no lock is taken around the fit.
type refitTask struct {
	pred simulator.Predictor
	cp   *simulator.Checkpoint
	ch   chan<- refitResult
}

// fit executes the fit and returns its outcome without delivering it.
// A panicking predictor is contained to its own job: on a detached pool
// worker a panic would kill the whole multi-tenant process, so it is
// converted into the fail-the-job error path instead.
func (t refitTask) fit() refitResult {
	var warm0, scratch0 uint64
	if rc, ok := t.pred.(refitCounter); ok {
		warm0, scratch0 = rc.RefitCounts()
	}
	t0 := time.Now()
	verdicts, err := t.predict()
	res := refitResult{verdicts: verdicts, err: err, dur: time.Since(t0)}
	if rc, ok := t.pred.(refitCounter); ok {
		w, s := rc.RefitCounts()
		res.warm, res.scratch = w-warm0, s-scratch0
	}
	return res
}

func (t refitTask) predict() (verdicts []bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			verdicts, err = nil, fmt.Errorf("serve: predictor %s panicked during refit: %v", t.pred.Name(), r)
		}
	}()
	return t.pred.Predict(t.cp)
}

// refitPool is one shard's refit worker pool. Workers are spawned on demand
// up to refitWorkers and exit when the queue drains, so an idle server holds
// no pipeline goroutines and servers need no explicit shutdown. The queue
// needs no bound of its own: its only producer, jobState.startRefit, runs
// after applyRefit has received the job's previous fit, so the queue holds
// at most one task per registered job, and the view that task carries is
// held by the job (jobState.pending) until its next boundary in any case.
type refitPool struct {
	mu       sync.Mutex
	queue    []refitTask
	workers  int
	inflight int

	// lag counts captured-but-unapplied refits across the shard's jobs (the
	// generation lag queries can observe); warmFits/scratchFits accumulate
	// fit-strategy counts as results are applied. Atomics so Stats reads
	// and job-lock-holding updates never contend on the pool mutex.
	lag                   atomic.Int64
	warmFits, scratchFits atomic.Uint64
}

// refitWorkers bounds each shard's refit pool: up to two fits of one
// shard's jobs run at once, so a server runs at most 2 × Shards.
const refitWorkers = 2

// enqueue queues one fit and ensures a worker will pick it up. Never
// blocks: backpressure comes from the apply-at-next-boundary protocol (a job
// cannot capture a second view until its first is applied), not from queue
// waits.
func (p *refitPool) enqueue(t refitTask) {
	p.mu.Lock()
	p.queue = append(p.queue, t)
	if p.workers < refitWorkers {
		p.workers++
		go p.work()
	}
	p.mu.Unlock()
}

// work drains the queue, exiting when it is empty.
func (p *refitPool) work() {
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.workers--
			p.queue = nil // release the drained backing array
			p.mu.Unlock()
			return
		}
		t := p.queue[0]
		p.queue[0] = refitTask{}
		p.queue = p.queue[1:]
		p.inflight++
		p.mu.Unlock()
		res := t.fit()
		// The gauge drops before the result is delivered: whoever receives
		// it (and then reads Stats on a drained server) must never see this
		// fit still counted. The fit itself ran wholly inside inflight > 0.
		p.mu.Lock()
		p.inflight--
		p.mu.Unlock()
		t.ch <- res
	}
}

// depths reports the live queue depth and the number of fits executing.
func (p *refitPool) depths() (queued, inflight int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue), p.inflight
}
