package wal

// options.go is the log's configuration and its counters: Options with its
// defaults and stream fan-out, and the Stats /stats serves.

import (
	"runtime"
	"time"
)

// Options sizes a WAL. Every field has a caller that sets it off its zero
// value: SegmentBytes, Streams and FS are the torture suites' only handles
// on rotation, fan-out and faults; SyncEvery is set by the benchmark and by
// nurdserve's -wal-sync; CheckpointEvery and CheckpointBytes are a
// deployment's recovery-time policy.
type Options struct {
	// SegmentBytes is the per-stream rotation threshold: once a stream's
	// open segment holds at least this many bytes the next append lands in
	// a fresh segment. 0 means the 4 MiB default; segments bound both the
	// replay unit and how much log a checkpoint can retire at once.
	SegmentBytes int64
	// SyncEvery is the group-commit fsync interval. 0 syncs every commit
	// (full power-loss durability); > 0 runs a background flusher at that
	// interval, exposing at most one interval of acknowledged records to
	// power loss (a process crash loses nothing either way — records reach
	// the OS before they are acknowledged).
	SyncEvery time.Duration
	// Streams is how many per-shard segment streams appends fan across.
	// 0 means the recovering server's shard count, capped at GOMAXPROCS (and
	// MaxStreams): only that many appends can contend at once, and every
	// stream dirty inside a group-commit window costs its own fsync. The
	// count is a concurrency knob, not state: records carry global LSNs, so
	// a directory written at one stream count recovers at any other.
	Streams int
	// CheckpointEvery arms the automatic checkpoint policy's wall-clock
	// trigger: a background goroutine stamps a snapshot into the WAL
	// directory (exactly like Server.CheckpointWAL) at this period.
	// 0 disables the timer.
	CheckpointEvery time.Duration
	// CheckpointBytes arms the automatic checkpoint policy's size trigger:
	// a checkpoint is taken once this many bytes have been appended since
	// the previous checkpoint, bounding both recovery time and retained log
	// size under sustained traffic. 0 disables the size trigger.
	CheckpointBytes int64
	// FS overrides the filesystem (fault injection in tests). nil = OS.
	FS FS
}

// DefaultSegmentBytes is the segment rotation threshold when
// Options.SegmentBytes is 0.
const DefaultSegmentBytes = 4 << 20

// MaxStreams caps the per-shard stream fan-out (file handles, segment
// churn). Shard counts above it share streams, which is only a contention
// matter, never a correctness one.
const MaxStreams = 64

func (o Options) WithDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	return o
}

// streamCount resolves the fan-out: the explicit option, or the recovering
// server's shard count capped at GOMAXPROCS (see Options.Streams for
// why), always within [1, MaxStreams].
func (o Options) streamCount(shards int) int {
	n := o.Streams
	if n <= 0 {
		n = shards
		if p := runtime.GOMAXPROCS(0); n > p {
			n = p
		}
	}
	if n < 1 {
		n = 1
	}
	if n > MaxStreams {
		n = MaxStreams
	}
	return n
}

// StreamStats reports one per-shard stream's counters.
type StreamStats struct {
	// Shard is the stream index (appends route by wire.Mix64(jobID) % streams).
	Shard int `json:"shard"`
	// Segments counts the stream's live segment files.
	Segments int `json:"segments"`
	// LastLSN is the last log sequence number appended to this stream
	// (0: none yet).
	LastLSN uint64 `json:"last_lsn"`
	// Appends counts records appended to this stream by this process;
	// Bytes their framed size.
	Appends uint64 `json:"appends"`
	Bytes   uint64 `json:"bytes"`
	// Syncs counts fsync calls; PendingBytes the group-commit backlog.
	Syncs        uint64 `json:"syncs"`
	PendingBytes int64  `json:"pending_bytes"`
}

// Stats reports a WAL's counters; /stats serves them as the "wal"
// object.
type Stats struct {
	// Segments counts live segment files across all streams, including the
	// read-only streams beyond the fan-out that recovery handed over.
	Segments int `json:"segments"`
	// Streams is the per-shard stream fan-out of this writer.
	Streams int `json:"streams"`
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
	// PerStream breaks the counters down by stream so operators can spot a
	// hot shard's durability lag.
	PerStream []StreamStats `json:"per_stream,omitempty"`
}

// Stats reports the WAL's counters.
func (w *WAL) Stats() Stats {
	st := Stats{
		Streams:            len(w.streams),
		NextLSN:            w.seq.Load(),
		RetiredSegments:    w.retired.Load(),
		Checkpoints:        w.ckpts.Load(),
		CheckpointFailures: w.ckptFails.Load(),
	}
	var oldest time.Time
	for _, s := range w.streams {
		s.mu.Lock()
		ss := StreamStats{
			Shard:        s.shard,
			Segments:     len(s.segs),
			LastLSN:      s.lastLSN,
			Appends:      s.appends,
			Bytes:        s.bytes,
			Syncs:        s.syncs,
			PendingBytes: s.pending,
		}
		since := s.pendingSince
		s.mu.Unlock()
		st.Segments += ss.Segments
		st.Appends += ss.Appends
		st.Bytes += ss.Bytes
		st.Syncs += ss.Syncs
		st.PendingBytes += ss.PendingBytes
		if !since.IsZero() && (oldest.IsZero() || since.Before(oldest)) {
			oldest = since
		}
		st.PerStream = append(st.PerStream, ss)
	}
	w.roMu.Lock()
	for _, g := range w.ro {
		st.Segments += len(g.segs)
	}
	w.roMu.Unlock()
	if !oldest.IsZero() {
		st.FsyncLag = time.Since(oldest)
	}
	return st
}
