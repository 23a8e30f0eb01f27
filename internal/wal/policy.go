package wal

// policy.go is the automatic checkpoint policy: the timer and size triggers
// that decide when the owner's checkpoint runs.

import (
	"time"
)

// StartAutoCheckpoint arms the background checkpoint policy. run is the
// owner's checkpoint procedure (the serving node's CheckpointWAL); the WAL
// only decides *when* to fire it — the layering keeps this package ignorant
// of what a checkpoint contains. Called by the owner before taking traffic.
func (w *WAL) StartAutoCheckpoint(run func() error) {
	if w.opts.CheckpointEvery <= 0 && w.opts.CheckpointBytes <= 0 {
		return
	}
	w.bg.Add(1)
	go w.checkpointLoop(run)
}

func (w *WAL) checkpointLoop(run func() error) {
	defer w.bg.Done()
	var tick <-chan time.Time
	if w.opts.CheckpointEvery > 0 {
		t := time.NewTicker(w.opts.CheckpointEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-w.stop:
			return
		case <-tick:
		case <-w.ckptCh:
		}
		// An idle server has nothing new to cover: re-snapshotting the same
		// state every tick would burn full-registry serialization and disk
		// I/O for a snapshot with an identical floor. (Explicit
		// CheckpointWAL calls are not gated — an operator asking for a
		// checkpoint gets one.)
		if w.seq.Load() == w.ckptFloor.Load() {
			continue
		}
		// Errors do not wedge the policy: a full disk at checkpoint time
		// leaves the log intact, and the next trigger retries — the timer
		// on its next tick, the size trigger after another CheckpointBytes
		// of appends (resetting the accumulator doubles as backoff, so a
		// persistently failing disk is not hammered once per append). The
		// failure counter surfaces the condition in /stats.
		if err := run(); err != nil {
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
