package wal

// append.go is the log's write path, in two halves. Stage encodes a record,
// assigns its LSN and appends the frame to the staged buffer — no system
// call. Commit writes what is staged through an LSN (one Write) and, with
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

// recordPad reserves the wire.FrameRecord prefix (lsn u64 + wrapped kind u8) at
// the front of the payload scratch so the inner payload encodes in place.
var recordPad [9]byte

// stage encodes one record of jobID's — kind says which: a FrameSpec from
// sp, a FrameEvent or FrameFinish from ev, a FrameDrop from jobID alone —
// appends its frame to the staged bytes, and returns the record's LSN.
// Nothing is acknowledgeable until Commit(lsn) returns. An encode error
// aborts before an LSN is consumed: a record that cannot round-trip must
// never reach the log, where it would poison every future recovery.
func (w *WAL) stage(jobID uint64, kind wire.FrameKind, sp *wire.JobSpec, ev *wire.Event) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return 0, ErrClosed
	}
	if err := w.Err(); err != nil {
		return 0, err
	}
	// e stays on the stack: every encoder it is handed to is a plain call.
	e := wire.Enc{B: append(w.buf[:0], recordPad[:]...)}
	var err error
	switch kind {
	case wire.FrameSpec:
		err = wire.AppendSpecPayload(&e, sp)
	case wire.FrameEvent:
		if len(ev.Features) > wire.MaxWireFeatures {
			err = fmt.Errorf("serve/wal: %d features exceed %d", len(ev.Features), wire.MaxWireFeatures)
		} else {
			wire.AppendEventPayload(&e, ev)
		}
	case wire.FrameFinish:
		wire.AppendFinishPayload(&e, jobID, ev.Time)
	case wire.FrameDrop:
		wire.AppendDropPayload(&e, jobID)
	}
	w.buf = e.B[:0] // retain the (possibly grown) payload scratch
	if err != nil {
		return 0, err
	}
	if w.f == nil {
		if err := w.createSegmentLocked(); err != nil {
			return 0, err
		}
	}
	// The LSN is assigned only after the record is known encodable and the
	// segment open: a consumed-but-unwritten LSN would read as a hole to
	// every future recovery.
	lsn := w.seq.Add(1) - 1
	for i := 0; i < 8; i++ {
		e.B[i] = byte(lsn >> (8 * i))
	}
	e.B[8] = byte(kind)
	before := len(w.staged)
	w.staged = wire.AppendFrame(w.staged, wire.FrameRecord, e.B)
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
func (w *WAL) CommitAll() error { return w.Commit(w.seq.Load() - 1) }

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
func (w *WAL) StageSpec(sp *wire.JobSpec) (uint64, error) {
	return w.stage(sp.JobID, wire.FrameSpec, sp, nil)
}

// StageEvent stages an accepted Ingest. Job-finish events compact to a
// wire.FrameFinish record; everything else is a full event frame.
func (w *WAL) StageEvent(ev *wire.Event) (uint64, error) {
	kind := wire.FrameEvent
	if ev.Kind == wire.EventJobFinish {
		kind = wire.FrameFinish
	}
	return w.stage(ev.JobID, kind, nil, ev)
}

// StageDrop stages an accepted DropJob.
func (w *WAL) StageDrop(jobID uint64) (uint64, error) {
	return w.stage(jobID, wire.FrameDrop, nil, nil)
}

// AppendSpec logs an accepted StartJob: StageSpec, then Commit.
func (w *WAL) AppendSpec(sp *wire.JobSpec) (uint64, error) { return w.committed(w.StageSpec(sp)) }

// AppendEvent logs an accepted Ingest: StageEvent, then Commit. The record
// is in its segment file when this returns.
func (w *WAL) AppendEvent(ev *wire.Event) (uint64, error) { return w.committed(w.StageEvent(ev)) }

// AppendDrop logs an accepted DropJob: StageDrop, then Commit.
func (w *WAL) AppendDrop(jobID uint64) (uint64, error) { return w.committed(w.StageDrop(jobID)) }
