package wal

// append.go is the log's write path, in two halves. Stage puts a record on
// the staged buffer as the wire frame a dump would carry and assigns its
// LSN — no system call. An event that arrived as a frame (an /ingest body,
// a replayed dump) is logged as that frame, copied as received: the reader
// checked its CRC, and the format is canonical, so encoding the event again
// would give the same bytes at the price of a second CRC. Every other
// record is encoded by wire (wire.EncodeSpec, wire.EncodeEvent,
// wire.EncodeDrop).
// Commit writes what is staged through an LSN (one Write) and, with
// SyncEvery == 0, waits for an fsync that covers it. A caller acknowledges
// only after Commit; the single-record Append* calls are
// stage-one-then-commit, so there is one write path whether a record
// travels alone or as one of a request body's hundreds.

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// stageLimit bounds the staged bytes: a stage that reaches it is written on
// the spot (without an fsync), so what the log holds in memory is set by
// this constant, not by the size of the request body being staged. On the
// write-size curve (README "Performance") the per-record cost of a write is
// flat well before 64 KiB, so the early write costs nothing measurable.
const stageLimit = 64 << 10

// stage appends one record's frame to the staged bytes — a FrameSpec from
// sp, a FrameEvent from ev, or else frame, a complete frame the caller
// holds — and returns the record's LSN. Nothing is acknowledgeable until
// Commit(lsn) returns. The frame carries no LSN: recovery derives it as the
// segment's stamp plus the frame's ordinal, which holds because LSNs are
// assigned and frames staged in one order under mu, and a segment is
// stamped with the LSN its first record gets. An encode error aborts before
// an LSN is consumed: a record that cannot round-trip must never reach the
// log, where it would poison every future recovery.
func (w *WAL) stage(sp *wire.JobSpec, ev *wire.Event, frame []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stageLocked(sp, ev, frame)
}

// stageLocked is stage with mu held. Rotation drops and retakes mu; it is
// held again when this returns.
func (w *WAL) stageLocked(sp *wire.JobSpec, ev *wire.Event, frame []byte) (uint64, error) {
	if w.closed.Load() {
		return 0, ErrClosed
	}
	if err := w.Err(); err != nil {
		return 0, err
	}
	before := len(w.staged)
	var err error
	switch {
	case sp != nil:
		w.staged, err = wire.EncodeSpec(w.staged, *sp)
	case ev != nil:
		w.staged, err = wire.EncodeEvent(w.staged, *ev)
	default:
		w.staged = append(w.staged, frame...)
	}
	if err != nil {
		return 0, err
	}
	if w.f == nil {
		if err := w.createSegmentLocked(); err != nil {
			w.staged = w.staged[:before]
			return 0, err
		}
	}
	// The LSN is assigned only after the record is known encodable and the
	// segment open: a consumed-but-unwritten LSN would read as a hole to
	// every future recovery.
	lsn := w.seq
	w.seq++
	n := len(w.staged) - before
	w.lastLSN = lsn
	w.appends++
	w.bytes += uint64(n)
	w.noteAppended(int64(n))
	switch {
	case w.segBytes+int64(len(w.staged)) >= w.opts.SegmentBytes:
		// Rotation is per record, staged or not: the record that carries the
		// segment past its threshold forces the stage out and rotates, so
		// what a segment holds never depends on how records were batched.
		// Rotation fsyncs and closes the file, which must serialize with an
		// in-flight group-commit flush — and syncMu orders before mu, so
		// drop and reacquire. The re-check covers whatever the window let
		// through (another stage rotating first, Close closing the file).
		w.mu.Unlock()
		w.syncMu.Lock()
		w.mu.Lock()
		if w.f != nil && w.segBytes+int64(len(w.staged)) >= w.opts.SegmentBytes {
			err = w.rotateLocked()
		}
		w.syncMu.Unlock()
	case len(w.staged) >= stageLimit:
		err = w.writeStagedLocked()
	}
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// writeStagedLocked writes the staged frames as one Write, advancing the
// written-through LSN. Called with mu held; it never fsyncs. A wedged log
// writes nothing more: the failed file may end in a torn frame, and bytes
// appended behind it could never be read back.
func (w *WAL) writeStagedLocked() error {
	if len(w.staged) == 0 {
		return nil
	}
	if err := w.Err(); err != nil {
		return err
	}
	if _, err := w.f.Write(w.staged); err != nil {
		return w.fail(fmt.Errorf("serve/wal: append: %w", err))
	}
	n := int64(len(w.staged))
	w.staged = w.staged[:0]
	w.segBytes += n
	w.pending += n
	if w.pendingSince.IsZero() {
		w.pendingSince = time.Now()
	}
	w.writtenLSN = w.lastLSN
	return nil
}

// Commit makes every record staged at or below lsn acknowledgeable: it
// writes the stage unless an earlier write already carried lsn — whoever
// staged it: a lower LSN staged by another caller (a client still uploading
// the rest of its body, say) is in memory, so this caller puts it in the
// file instead of waiting for that caller's own commit. With SyncEvery == 0
// it then returns only once an fsync covering lsn has returned; a commit an
// earlier fsync already covered returns without one.
func (w *WAL) Commit(lsn uint64) error {
	w.mu.Lock()
	var err error
	if w.writtenLSN < lsn {
		err = w.writeStagedLocked()
	}
	w.mu.Unlock()
	if err != nil || w.opts.SyncEvery > 0 {
		return err
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncedLSN >= lsn {
		return nil
	}
	return w.flushLocked()
}

// CommitAll is Commit up to the last LSN assigned so far: a barrier for
// callers that staged without keeping their LSNs.
func (w *WAL) CommitAll() error { return w.Commit(w.NextLSN() - 1) }

// committed turns a stage result into an append result: the record is in
// the file (and, with SyncEvery == 0, synced) before the LSN is returned.
func (w *WAL) committed(lsn uint64, err error) (uint64, error) {
	if err == nil {
		err = w.Commit(lsn)
	}
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// StageSpec stages an accepted StartJob (the defaulted, validated spec).
func (w *WAL) StageSpec(sp *wire.JobSpec) (uint64, error) { return w.stage(sp, nil, nil) }

// StageEvent stages an accepted Ingest, job finishes included, encoding ev.
// An event that arrived as a frame is staged as that frame by StageFrames.
func (w *WAL) StageEvent(ev *wire.Event) (uint64, error) { return w.stage(nil, ev, nil) }

// StageFrames stages a run of accepted Ingests, each as the event frame it
// arrived as (header, payload and CRC, as wire.Reader.FrameOf returns it),
// under one hold of the log's lock. Every record takes stage's own steps in
// order — its LSN, rotation, the early write at stageLimit — so the log
// holds the same bytes whether a run's records are staged together or one
// by one. It returns the LSN of the last record
// staged and how many were: on an error, the records before the failing one
// stay staged.
func (w *WAL) StageFrames(frames [][]byte) (lsn uint64, n int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, f := range frames {
		l, err := w.stageLocked(nil, nil, f)
		if err != nil {
			return lsn, n, err
		}
		lsn, n = l, n+1
	}
	return lsn, n, nil
}

// StageDrop stages an accepted DropJob.
func (w *WAL) StageDrop(jobID uint64) (uint64, error) {
	var b [5 + 8 + 4]byte // frame header, job ID, CRC
	return w.stage(nil, nil, wire.EncodeDrop(b[:0], jobID))
}

// AppendSpec logs an accepted StartJob: StageSpec, then Commit.
func (w *WAL) AppendSpec(sp *wire.JobSpec) (uint64, error) { return w.committed(w.StageSpec(sp)) }

// AppendEvent logs an accepted Ingest: StageEvent, then Commit. The record
// is in its segment file when this returns.
func (w *WAL) AppendEvent(ev *wire.Event) (uint64, error) { return w.committed(w.StageEvent(ev)) }
