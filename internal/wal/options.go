package wal

// options.go is the log's configuration and its counters: Options with its
// defaults, and the Stats /stats serves.

import (
	"time"
)

// Options sizes a WAL. Every field has a caller that sets it off its zero
// value: SegmentBytes and FS are the torture suites' only handles on
// rotation and faults; SyncEvery is set by the benchmark and by nurdserve's
// -wal-sync; CheckpointBytes by nurdserve's -wal-checkpoint-bytes.
type Options struct {
	// SegmentBytes is the rotation threshold: once the open segment holds at
	// least this many bytes the next append lands in a fresh segment. 0
	// means the 4 MiB default; segments bound both the replay unit and how
	// much log a checkpoint can retire at once.
	SegmentBytes int64
	// SyncEvery is the group-commit fsync interval. 0 makes every commit
	// wait for an fsync covering it (full power-loss durability; commits
	// that queue behind one fsync share the next); > 0 runs a background
	// flusher at that interval, exposing at most one interval of
	// acknowledged records to power loss (a process crash loses nothing
	// either way — records reach the OS before they are acknowledged).
	SyncEvery time.Duration
	// CheckpointBytes arms the automatic checkpoint policy: a background
	// goroutine compacts the log into a new base (exactly like
	// Server.CheckpointWAL) once this many bytes have been appended since
	// the previous checkpoint, so the segments kept beside the bases stay
	// bounded under sustained traffic. It does not bound recovery time: a
	// base keeps every live job's frames, and only drops shrink what a
	// recovery replays. 0 disables the policy.
	CheckpointBytes int64
	// FS overrides the filesystem (fault injection in tests). nil = OS.
	FS FS
}

// DefaultSegmentBytes is the segment rotation threshold when
// Options.SegmentBytes is 0.
const DefaultSegmentBytes = 4 << 20

func (o Options) WithDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	return o
}

// Stats reports a WAL's counters; /stats serves them as the "wal"
// object.
type Stats struct {
	// Segments counts live segment files.
	Segments int `json:"segments"`
	// NextLSN is the next log sequence number to be assigned; NextLSN-1
	// records have been appended over the log's lifetime.
	NextLSN uint64 `json:"next_lsn"`
	// Appends counts records appended by this process; Bytes their framed
	// size.
	Appends uint64 `json:"appends"`
	Bytes   uint64 `json:"bytes"`
	// Syncs counts fsync calls; PendingBytes is the group-commit backlog
	// (bytes written since the last sync; staged bytes are not yet
	// acknowledged and do not count) and FsyncLag the age of its oldest
	// byte — together the window a power loss could lose.
	Syncs        uint64        `json:"syncs"`
	PendingBytes int64         `json:"pending_bytes"`
	FsyncLag     time.Duration `json:"fsync_lag_ns"`
	// RetiredSegments counts segments removed by checkpoints.
	RetiredSegments uint64 `json:"retired_segments"`
	// Checkpoints counts completed checkpoints (automatic or explicit);
	// CheckpointFailures the attempts that errored (the policy retries on
	// its next trigger).
	Checkpoints        uint64 `json:"checkpoints"`
	CheckpointFailures uint64 `json:"checkpoint_failures"`
	// Wedged reports a latched write or fsync failure (ErrFailed): every
	// later append fails until the server is recovered from the directory.
	Wedged bool `json:"wedged"`
}

// Stats reports the WAL's counters.
func (w *WAL) Stats() Stats {
	st := Stats{
		RetiredSegments:    w.retired.Load(),
		Checkpoints:        w.ckpts.Load(),
		CheckpointFailures: w.ckptFails.Load(),
		Wedged:             w.Err() != nil,
	}
	w.mu.Lock()
	st.NextLSN = w.seq
	st.Segments = len(w.segs)
	st.Appends, st.Bytes, st.Syncs = w.appends, w.bytes, w.syncs
	st.PendingBytes = w.pending
	since := w.pendingSince
	w.mu.Unlock()
	if !since.IsZero() {
		st.FsyncLag = time.Since(since)
	}
	return st
}
