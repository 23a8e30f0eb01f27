package wal

// policy.go is the automatic checkpoint policy: the size trigger that
// decides when the log checkpoints itself.

// checkpointLoop is the automatic checkpoint policy, started by Open when
// Options.CheckpointBytes arms it: it fires Checkpoint each time the size
// trigger pokes it, until Close.
func (w *WAL) checkpointLoop() {
	defer w.bg.Done()
	for {
		select {
		case <-w.stop:
			return
		case <-w.ckptCh:
		}
		// A poke left queued while an explicit checkpoint covered its
		// appends has nothing new to cover: a checkpoint would cut at the
		// same floor and return the same base.
		if w.NextLSN() == w.ckptFloor.Load() {
			continue
		}
		// Errors do not wedge the policy: a full disk at checkpoint time
		// leaves the log intact, and the next trigger retries after another
		// CheckpointBytes of appends (resetting the accumulator doubles as
		// backoff, so a persistently failing disk is not hammered once per
		// append). The failure counter surfaces the condition in /stats.
		if _, _, err := w.Checkpoint(); err != nil {
			w.ckptFails.Add(1)
			w.sinceCkpt.Store(0)
			w.ckptArmed.Store(false)
		}
	}
}

// noteAppended feeds the size trigger: once CheckpointBytes have
// accumulated since the last checkpoint, poke the policy goroutine (at most
// one outstanding poke; checkpointDone rearms).
func (w *WAL) noteAppended(n int64) {
	if w.opts.CheckpointBytes <= 0 {
		return
	}
	if w.sinceCkpt.Add(n) >= w.opts.CheckpointBytes && w.ckptArmed.CompareAndSwap(false, true) {
		select {
		case w.ckptCh <- struct{}{}:
		default:
		}
	}
}

// checkpointDone resets the size trigger after a checkpoint completed at
// floor.
func (w *WAL) checkpointDone(floor uint64) {
	w.ckpts.Add(1)
	w.ckptFloor.Store(floor)
	w.sinceCkpt.Store(0)
	w.ckptArmed.Store(false)
}
