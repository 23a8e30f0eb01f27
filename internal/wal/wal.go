package wal

// wal.go is the serving layer's write-ahead log: every accepted mutation —
// a registration, an event (a job's finish and the benignly dropped late
// events, which still move counters, included), a drop — is given its LSN
// as one CRC-framed wire record of a rotating segment file before the
// owning lock is released, and is in that file before it is acknowledged,
// so a crash between checkpoints loses nothing that was acknowledged.
//
// The log is one stream of rotating segment files, log-<stamp>.seg, and a
// segment is a dump: the wire stream header, a wire.FrameSegHeader, then the
// same FrameSpec/FrameEvent/FrameDrop frames a trace dump or an /ingest body
// carries. The header declares the segment's stamp — the LSN of
// its first record — and the LSN the log ended at before it, the chain link
// recovery uses to detect missing segments. No record carries its LSN: the
// k-th record of a segment has LSN stamp+k. This is the only layout the
// package reads or writes.
//
// Durability model: acknowledged means written. A record is first staged —
// framed, given its LSN, appended to the staged buffer — and nothing about
// it is promised yet. Commit (append.go) writes everything staged with one
// Write call, i.e. into the OS page cache, and the mutation is acknowledged
// only after that, so an acknowledged mutation survives a process crash.
// LSNs are assigned and written in order under one lock, so when a record is
// in the file every lower LSN is too: a crash leaves a prefix of the log. A
// request body's records are staged one by one and committed once, before
// the reply; a single in-process mutation is the one-record case of the same
// path.
//
// What is staged is already applied in memory, so a query can see a
// mutation before it is in the OS; a crash in that window loses it,
// unacknowledged — the standing the received half of a half-sent body
// always had. The stage is bounded by stageLimit, not by the body, and
// rotation stays per record, so a directory's bytes do not depend on how
// its records were batched. A checkpoint writes and syncs everything staged
// before it fixes its floor, so no base ever holds a record the log could
// still lose.
//
// Power loss is Options.SyncEvery's business. With SyncEvery == 0 a commit
// returns only once an fsync that started after its write has returned. The
// fsync runs outside the write lock, so stages and writes go on while it is
// in flight, and one fsync covers every commit that wrote before it began:
// commits queued behind it return without one of their own. With
// SyncEvery > 0 a commit returns once written and a background flusher
// fsyncs at that interval, so at most one interval of acknowledged records
// is exposed to power loss. Plain writes never fsync; Sync, rotation and
// Close write what is staged, then fsync.
//
// A checkpoint compacts the log: the segments below a floor, together with
// the previous checkpoint's base, become one base-<floor>.dump — a plain
// wire dump of the spec and event frames of every job not dropped below the
// floor — and the covered segments retire (open.go). It reads the log, never
// the server, so it takes no job lock. Checkpointing is automatic:
// Options.CheckpointEvery (wall clock) and CheckpointBytes (appended bytes
// since the last checkpoint) arm a background policy; Server.CheckpointWAL
// remains for explicit control.
//
// The filesystem is abstracted behind FS so the crash-injection torture
// harness can kill the log at every byte offset; production code uses the
// default OS-backed implementation.

import (
	"repro/internal/wire"

	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed reports an append to a closed WAL.
var ErrClosed = errors.New("serve/wal: closed")

// ErrFailed reports an append after a previous write error: the log is
// wedged (likely mid-crash or out of disk) and the server must be treated
// as failed — recover from the directory instead of continuing.
var ErrFailed = errors.New("serve/wal: failed")

// ErrGap reports a recovery that found history missing between the base's
// floor and the retained log — externally deleted or misplaced segments, or
// records out of LSN order. Recovery refuses to silently skip the hole.
var ErrGap = errors.New("serve/wal: gap in log")

// WAL is an append-only log of serving mutations. Appends are internal (the
// Server calls them under its own locks); operators interact with a WAL
// through Recover, Server.CheckpointWAL, Stats, Sync, and Close.
type WAL struct {
	dir  string
	opts Options

	// failed latches the first write or fsync error; every later append
	// returns it. Atomic so the stage path reads it without a lock.
	failed atomic.Pointer[error]

	closed atomic.Bool

	// syncMu serializes the operations that may fsync or close the open
	// file (flush, rotation, Close) with each other, so a flush can run its
	// fsync outside mu while stages keep flowing. syncedLSN is the highest
	// LSN a completed fsync covers; only syncMu holders touch it. Lock
	// order: syncMu before mu.
	syncMu    sync.Mutex
	syncedLSN uint64

	// mu covers the LSN counter, the open segment, the staged frames and
	// the other counters; staging a record takes exactly this one lock.
	// seq, the next LSN to assign, is a plain integer: only stage advances
	// it, under mu, and NextLSN, Stats, CommitAll, the checkpoint's cut and
	// its policy read it under mu too.
	mu           sync.Mutex
	seq          uint64
	f            File   // open segment; nil until the first append (lazy)
	stamp        uint64 // open segment's name stamp
	lastLSN      uint64 // last LSN staged (recovered or live): the next segment header's chain link
	writtenLSN   uint64 // highest LSN whose frame is in the file
	segBytes     int64  // bytes in the open segment
	pending      int64  // bytes written since the last fsync
	pendingSince time.Time
	segs         []Entry // live segments, ascending stamp
	appends      uint64
	bytes        uint64
	syncs        uint64
	staged       []byte // framed records not yet written, reused under mu

	// Automatic checkpoint policy state. sinceCkpt accumulates appended
	// bytes; crossing CheckpointBytes pokes ckptCh (at most one poke
	// outstanding, guarded by ckptArmed).
	sinceCkpt atomic.Int64
	ckptArmed atomic.Bool
	ckptCh    chan struct{}
	ckpts     atomic.Uint64
	ckptFails atomic.Uint64
	ckptFloor atomic.Uint64 // floor of the last completed checkpoint
	retired   atomic.Uint64

	stop chan struct{}
	bg   sync.WaitGroup

	// ckptMu serializes whole checkpoints (automatic or explicit): the
	// compaction runs outside mu, so appends go on while it reads the
	// closed segments. base is the floor of the newest base the log
	// continues (0: none), under ckptMu.
	ckptMu sync.Mutex
	base   uint64
}

// Err reports the latched failure, if any. Lock-free: the stage path calls
// this once per record.
func (w *WAL) Err() error {
	if p := w.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// fail latches the WAL's first write error and returns the latched,
// ErrFailed-wrapped form, so the very first failing append classifies
// the same way every later one does (the HTTP front answers 503, not 422,
// from the first wedged write onward).
func (w *WAL) fail(err error) error {
	wrapped := fmt.Errorf("%w: %v", ErrFailed, err)
	w.failed.CompareAndSwap(nil, &wrapped)
	return *w.failed.Load()
}

// createSegmentLocked opens a fresh segment: name stamp from the sequence,
// header chaining to the last LSN staged. Called with mu held.
func (w *WAL) createSegmentLocked() error {
	stamp := w.seq
	name := filepath.Join(w.dir, SegName(stamp))
	f, err := w.opts.FS.Create(name)
	if err != nil {
		return w.fail(fmt.Errorf("serve/wal: create segment: %w", err))
	}
	// The directory entry must be durable before any record in this
	// segment is: fsyncing file data never covers the entry, and a power
	// loss that forgets the file would take fully-synced records with it.
	if err := w.opts.FS.SyncDir(w.dir); err != nil {
		f.Close()
		return w.fail(fmt.Errorf("serve/wal: sync dir: %w", err))
	}
	// Written straight to the file, ahead of the record whose stage opened
	// the segment (it is staged, not yet written).
	var e wire.Enc
	wire.AppendSegHeaderPayload(&e, stamp, w.lastLSN)
	hdr := wire.AppendFrame(wire.AppendHeader(nil), wire.FrameSegHeader, e.B)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return w.fail(fmt.Errorf("serve/wal: segment header: %w", err))
	}
	w.f = f
	w.stamp = stamp
	w.segBytes = int64(len(hdr))
	w.pending += int64(len(hdr))
	if w.pendingSince.IsZero() {
		w.pendingSince = time.Now()
	}
	// A recovered header-only segment (created, then crashed before its
	// first record) can share this stamp: Create truncated that file, so
	// replace its inventory entry instead of double-listing the name.
	if n := len(w.segs); n > 0 && w.segs[n-1].Seq == stamp {
		w.segs = w.segs[:n-1]
	}
	w.segs = append(w.segs, Entry{Name: SegName(stamp), Seq: stamp})
	return nil
}

// rotateLocked writes what is staged, then syncs and closes the open
// segment; the next stage opens its successor, exactly as the first stage
// opens the first segment. The successor's stamp and header do not depend
// on when it is opened — no LSN is assigned in between — but opening it
// lazily keeps its header write out of the rotating record's commit, so the
// record is acknowledged as soon as it is durable. Called with both syncMu
// and mu held; only called after at least one record was staged, so
// successive stamps are strictly increasing.
func (w *WAL) rotateLocked() error {
	if err := w.writeStagedLocked(); err != nil {
		return err
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return w.fail(err)
	}
	w.f = nil
	return nil
}

// syncLocked fsyncs the open segment under both locks (rotation, Close).
func (w *WAL) syncLocked() error {
	if w.f == nil || w.pending == 0 {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(fmt.Errorf("serve/wal: sync: %w", err))
	}
	w.syncs++
	w.pending = 0
	w.pendingSince = time.Time{}
	w.syncedLSN = w.writtenLSN
	return nil
}

// flushLocked is the group-commit fsync, staged frames written first. Called
// with syncMu held. The fsync itself runs under syncMu only — mu is held
// just to write the stage and to capture and settle the bookkeeping — so
// stages proceed while it is in flight. Bytes written after the capture
// stay pending (the fsync may or may not have covered them; the next flush
// settles it). A wedged log does not fsync again: an fsync after a failed
// one can report success for data the device already dropped.
func (w *WAL) flushLocked() error {
	if err := w.Err(); err != nil {
		return err
	}
	w.mu.Lock()
	err := w.writeStagedLocked()
	f, captured, through := w.f, w.pending, w.writtenLSN
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if f == nil || captured == 0 {
		return nil
	}
	if err := f.Sync(); err != nil {
		return w.fail(fmt.Errorf("serve/wal: sync: %w", err))
	}
	w.mu.Lock()
	w.syncs++
	w.pending -= captured // rotation is excluded by syncMu; pending only grew
	if w.pending == 0 {
		w.pendingSince = time.Time{}
	} else {
		w.pendingSince = time.Now()
	}
	w.mu.Unlock()
	w.syncedLSN = through
	return nil
}

// Sync makes every record staged so far durable (the group-commit flush).
func (w *WAL) Sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.flushLocked()
}

func (w *WAL) flushLoop() {
	defer w.bg.Done()
	t := time.NewTicker(w.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if w.Err() != nil {
				// The log is wedged: every append fails, nothing new can
				// become pending, and each tick would only hammer the dead
				// device. Stop; Close still joins a finished goroutine.
				return
			}
			w.Sync()
		}
	}
}

// NextLSN returns the next log sequence number to be assigned.
func (w *WAL) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Dir returns the WAL directory.
func (w *WAL) Dir() string { return w.dir }

// Close writes what is staged, then syncs and closes the log. Appends after
// Close fail with ErrClosed.
func (w *WAL) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(w.stop)
	w.bg.Wait()
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.writeStagedLocked()
	if err == nil {
		err = w.syncLocked()
	}
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	return err
}
