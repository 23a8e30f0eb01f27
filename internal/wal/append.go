package wal

// append.go is the log's write path, in two halves. Stage encodes a record,
// assigns its LSN and appends the frame to the owning stream's buffer — no
// system call. Commit writes every stream still holding a staged record at
// or below an LSN (one Write per stream) and waits for the commit watermark
// to cover it. A caller acknowledges only after Commit; the single-record
// Append* calls are stage-one-then-commit, so there is one write path
// whether a record travels alone or as one of a request body's hundreds.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/wire"
)

// stageLimit bounds a stream's staged bytes: a stage that reaches it is
// written on the spot, so what a stream holds in memory is set by this
// constant, not by the size of the request body being staged. On the write-
// size curve (README "Performance") the per-record cost of a write is flat
// well before 64 KiB, so the early write costs nothing measurable.
const stageLimit = 64 << 10

// inflightClaim marks a stream that has started assigning an LSN but not
// yet published it; watermark readers retry while they see it.
const inflightClaim = ^uint64(0)

// watermark returns the highest LSN below which every assigned record's
// write has completed: the global next-LSN minus any stream's staged,
// still-unwritten records. A record at or below the watermark can be
// acknowledged — no lower LSN can be missing from the log on a process
// crash.
func (w *WAL) watermark() uint64 {
retry:
	for {
		wm := w.seq.Load() - 1
		for i := range w.inflight {
			switch v := w.inflight[i].Load(); {
			case v == inflightClaim:
				continue retry // mid-assignment; the claim window is two atomic ops
			case v != 0 && v-1 < wm:
				wm = v - 1
			}
		}
		return wm
	}
}

// WaitDurable blocks until the watermark covers lsn (every lower LSN
// written) or the log wedges. After Commit's own writes the wait is
// normally zero — what is left is a sibling stream preempted inside its
// microseconds-long write — so a brief spin beats parking.
func (w *WAL) WaitDurable(lsn uint64) error {
	for i := 0; ; i++ {
		if w.watermark() >= lsn {
			return nil
		}
		if err := w.Err(); err != nil {
			// A lower record's write failed and will never complete; this
			// record is in the log but must not be acknowledged (recovery
			// truncates at the hole the failed write left).
			return err
		}
		if i < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// recordPad reserves the wire.FrameRecord prefix (lsn u64 + wrapped kind u8) at
// the front of the payload scratch so the inner payload encodes in place.
var recordPad [9]byte

// stage encodes one record of jobID's stream — kind says which: a
// FrameSpec from sp, a FrameEvent or FrameFinish from ev, a FrameDrop from
// jobID alone — appends its frame to the stream's staged bytes, and returns
// the record's global LSN. Nothing is acknowledgeable until Commit(lsn)
// returns. An encode error aborts before an LSN is consumed: a record that
// cannot round-trip must never reach the log, where it would poison every
// future recovery.
func (w *WAL) stage(jobID uint64, kind wire.FrameKind, sp *wire.JobSpec, ev *wire.Event) (uint64, error) {
	s := w.streamFor(jobID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.closed.Load() {
		return 0, ErrClosed
	}
	if err := w.Err(); err != nil {
		return 0, err
	}
	// e stays on the stack: every encoder it is handed to is a plain call.
	e := wire.Enc{B: append(s.buf[:0], recordPad[:]...)}
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
	s.buf = e.B[:0] // retain the (possibly grown) payload scratch
	if err != nil {
		return 0, err
	}
	if s.f == nil {
		if err := s.createSegmentLocked(); err != nil {
			return 0, err
		}
	}
	// The LSN is assigned only after the record is known encodable and the
	// segment open: a consumed-but-unwritten LSN would read as a hole to
	// every future recovery. The stream's inflight slot holds its lowest
	// staged-unwritten LSN, so only the first record of a stage publishes
	// (claim, assign, publish); later ones sit above a slot that already
	// caps the watermark below them. On a write or sync failure the slot is
	// deliberately left holding the LSN: the hole is permanent, the
	// watermark sticks below it, and no later record on any stream is ever
	// acknowledged past it.
	first := len(s.staged) == 0
	if first {
		w.inflight[s.shard].Store(inflightClaim)
	}
	lsn := w.seq.Add(1) - 1
	if first {
		w.inflight[s.shard].Store(lsn)
	}
	for i := 0; i < 8; i++ {
		e.B[i] = byte(lsn >> (8 * i))
	}
	e.B[8] = byte(kind)
	before := len(s.staged)
	s.staged = wire.AppendFrame(s.staged, wire.FrameRecord, e.B)
	n := len(s.staged) - before
	s.lastLSN = lsn
	s.appends++
	s.bytes += uint64(n)
	w.noteAppended(int64(n))
	switch {
	case s.written+int64(len(s.staged)) >= w.opts.SegmentBytes:
		// Rotation is per record, staged or not: the record that carries the
		// segment past its threshold forces the stage out and rotates, so
		// what a segment holds never depends on how records were batched.
		// Rotation fsyncs and closes the file, which must serialize with an
		// in-flight group-commit flush — and syncMu orders before mu, so
		// drop and reacquire. The re-check covers whatever the window let
		// through (another stage rotating first, Close closing the file).
		s.mu.Unlock()
		s.syncMu.Lock()
		s.mu.Lock()
		if s.f != nil && s.written+int64(len(s.staged)) >= w.opts.SegmentBytes {
			err = s.rotateLocked()
		}
		s.syncMu.Unlock()
	case len(s.staged) >= stageLimit:
		err = s.writeStagedLocked()
	}
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// writeStagedLocked writes the stream's staged frames as one Write and,
// once they are in the file (and, with SyncEvery == 0, synced), releases
// the stream's hold on the watermark. Called with s.mu held. A wedged log
// writes nothing more: the failed stream's file may end in a torn frame,
// and bytes appended behind it could never be read back.
func (s *walStream) writeStagedLocked() error {
	if len(s.staged) == 0 {
		return nil
	}
	w := s.w
	if err := w.Err(); err != nil {
		return err
	}
	if _, err := s.f.Write(s.staged); err != nil {
		return w.fail(fmt.Errorf("serve/wal: append: %w", err))
	}
	n := int64(len(s.staged))
	s.staged = s.staged[:0]
	s.written += n
	s.pending += n
	if s.pendingSince.IsZero() {
		s.pendingSince = time.Now()
	}
	if w.opts.SyncEvery == 0 {
		// Full-durability mode: the records must be synced before anyone —
		// this stream or a sibling waiting on the watermark — treats them as
		// complete.
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	w.inflight[s.shard].Store(0)
	return nil
}

// Commit makes every record staged at or below lsn acknowledgeable: it
// writes each stream whose lowest staged LSN is at or below lsn — not only
// the streams the caller staged into — and then waits for the watermark.
// Writing the siblings itself is what keeps the wait short: a lower LSN
// staged by another caller (a client still uploading the rest of its body,
// say) is in memory, so this caller puts it in the file instead of waiting
// for that caller's own commit.
func (w *WAL) Commit(lsn uint64) error {
	for i, s := range w.streams {
		if v := w.inflight[i].Load(); v == 0 || (v != inflightClaim && v > lsn) {
			continue
		}
		// The slot only changes under s.mu, so the re-read is exact; a stage
		// caught mid-claim has published by the time the lock is ours.
		s.mu.Lock()
		var err error
		if v := w.inflight[i].Load(); v != 0 && v <= lsn {
			err = s.writeStagedLocked()
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	// Acknowledge only once every lower LSN is written: a sibling stream may
	// be inside its own write of an earlier record, and acking past that
	// would let a crash produce a hole *below* acknowledged data — which
	// recovery's hole truncation would then discard.
	return w.WaitDurable(lsn)
}

// CommitAll is Commit up to the last LSN assigned so far: a barrier for
// callers that staged without keeping their LSNs.
func (w *WAL) CommitAll() error { return w.Commit(w.seq.Load() - 1) }

// committed turns a stage result into an append result: the record is in
// the file, below the watermark, before the LSN is returned.
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
