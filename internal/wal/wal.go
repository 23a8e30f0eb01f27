package wal

// wal.go is the serving layer's write-ahead log: every accepted mutation —
// StartJob, Ingest (including the benignly dropped late events, which still
// move counters), FinishJob, DropJob — is given its LSN as one CRC-framed
// wire record of a rotating segment file before the owning lock is
// released, and is in that file before it is acknowledged, so a crash
// between snapshots loses nothing that was acknowledged.
//
// The log is sharded: each registry shard's jobs append to their own
// rotating segment stream (wal-<shard>-<stamp>.seg), so an append contends
// only on the stream of the shard that already owns the job — there is no
// global WAL mutex on the hot path. Log sequence numbers stay global (one
// atomic counter), and because per-shard streams interleave that sequence,
// every record carries its LSN explicitly (wire.FrameRecord); each segment opens
// with a wire.FrameSegHeader declaring its name stamp and the stream's previous
// end LSN, the chain link recovery uses to detect missing segments. This
// is the only layout the package reads or writes.
//
// Durability model: acknowledged means written, below the watermark. A
// record is first staged — framed, given its LSN, appended to its stream's
// buffer — and nothing about it is promised yet. Commit (append.go) writes
// every stream's staged frames with one Write call each, i.e. into the OS
// page cache, and the mutation is acknowledged only after that, so an
// acknowledged mutation survives a process crash. A request body's records
// are staged one by one and committed once, before the reply; a single
// in-process mutation is the one-record case of the same path. Because
// sibling streams interleave the LSN sequence, acknowledgment additionally
// waits for the commit watermark — every lower LSN written (and, with
// SyncEvery == 0, synced) — so a crash can never leave a hole in the log
// *below* an acknowledged record; the hole a crash can leave holds only
// unacknowledged records, which is exactly what recovery truncates.
//
// What is staged is already applied in memory, so a query can see a
// mutation before it is in the OS; a crash in that window loses it,
// unacknowledged — the standing the received half of a half-sent body
// always had. A stream's stage is bounded by stageLimit, not by the body,
// and rotation stays per record, so a directory's bytes do not depend on
// how its records were batched. A checkpoint commits everything staged
// before its snapshot becomes visible, so no snapshot ever reflects a
// record the log could still lose.
//
// fsync is group-committed: with Options.SyncEvery == 0 every commit syncs
// the streams it wrote before it returns (full power-loss durability,
// slowest); with SyncEvery > 0 a background flusher syncs all streams at
// that interval, so at most one interval of acknowledged records is exposed
// to power loss. Sync, rotation and Close write what is staged, then sync.
//
// Checkpointing is automatic: Options.CheckpointEvery (wall clock) and
// CheckpointBytes (appended bytes since the last checkpoint) arm a
// background policy that stamps a snapshot into the directory and retires
// covered segments per stream — Server.CheckpointWAL remains for explicit
// control, but operators no longer have to remember to call it.
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
// as failed — recover from snapshot + WAL instead of continuing.
var ErrFailed = errors.New("serve/wal: failed")

// ErrGap reports a recovery that found WAL segments missing between the
// snapshot floor and the retained log — externally deleted or misplaced
// segments. Recovery refuses to silently skip the hole.
var ErrGap = errors.New("serve/wal: gap in log")

// WAL is an append-only, sharded log of serving mutations. Appends are
// internal (the Server calls them under its own locks); operators interact
// with a WAL through Recover, Server.CheckpointWAL, Stats, Sync, and Close.
type WAL struct {
	dir  string
	opts Options

	// seq is the next global LSN to assign; streams interleave it. Reading
	// it (NextLSN, the snapshot floor) needs no locks.
	seq atomic.Uint64

	streams []*walStream

	// ro holds the read-only segment groups recovery handed over, keyed by
	// shard: streams of shard indices beyond the configured fan-out (a
	// directory written at a higher stream count). They are never appended
	// to; checkpoints retire them once covered. Each group records its last
	// LSN (learned by recovery) so its final segment — whose extent no
	// successor bounds — can retire too.
	roMu sync.Mutex
	ro   map[int]*roSegGroup

	// failed latches the first write error of any stream; every later
	// append on every stream returns it (one wedged stream wedges the
	// server's durability guarantee as a whole). Atomic so the stage
	// path reads it without a shared lock.
	failed atomic.Pointer[error]

	// inflight publishes, per stream, its lowest staged-but-unwritten LSN
	// (0: nothing staged; inflightClaim: a first LSN is being assigned right
	// now). The slot is held from the stage until the write (and, with
	// SyncEvery == 0, the fsync) completes. The commit watermark derived
	// from it — the highest LSN below which every record's write has
	// completed — gates acknowledgment: Commit returns only once the
	// watermark covers its LSN, so no mutation is ever acknowledged while a
	// lower LSN is still unwritten in a sibling stream. Without this, a
	// process crash could leave a hole *below* an acknowledged record, and
	// recovery's hole truncation would discard acknowledged data.
	inflight []atomic.Uint64

	closed atomic.Bool

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

	// ckptMu serializes whole checkpoints (automatic or explicit) — the
	// snapshot itself runs outside the stream locks (it takes job locks,
	// which appends hold before stream locks), so checkpoints need their
	// own exclusion.
	ckptMu sync.Mutex
}

// walStream is one per-shard segment stream. mu covers the open segment,
// the staged frames and the stream's counters; staging a record takes
// exactly this one lock. syncMu serializes the operations that may fsync or
// close the open file (group-commit flush, rotation, Close) with each
// other, so the flush can run its fsync *outside* mu — stages keep flowing
// into the stream while its group commit is in flight. Lock order: syncMu
// before mu.
type walStream struct {
	w     *WAL
	shard int

	syncMu       sync.Mutex
	mu           sync.Mutex
	f            File   // open segment; nil until the first append (lazy)
	stamp        uint64 // open segment's name stamp
	lastLSN      uint64 // last LSN staged to this stream (recovered or live)
	written      int64  // bytes in the open segment
	pending      int64  // bytes written since the last sync
	pendingSince time.Time
	segs         []Entry // live segments of this stream, ascending stamp
	appends      uint64
	bytes        uint64
	syncs        uint64
	buf          []byte // record payload scratch, reused under mu
	staged       []byte // framed records not yet written, reused under mu
}

// newWAL builds the writer Recover attaches: the global sequence resumes at
// seq, per-stream tails at streamLast (recovery's per-stream last retained
// LSNs), and read-only groups (out-of-range shard streams) are carried for
// retirement. No segment is created until a stream's first append (recovery
// never appends to a possibly-torn tail, and idle streams leave no empty
// files).
func newWAL(dir string, seq uint64, streams int, streamLast map[int]uint64,
	streamSegs map[int][]Entry, ro map[int]*roSegGroup, opts Options) *WAL {
	if seq < 1 {
		seq = 1
	}
	w := &WAL{
		dir:    dir,
		opts:   opts,
		ro:     ro,
		ckptCh: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	w.seq.Store(seq)
	w.streams = make([]*walStream, streams)
	w.inflight = make([]atomic.Uint64, streams)
	for i := range w.streams {
		w.streams[i] = &walStream{w: w, shard: i, lastLSN: streamLast[i], segs: streamSegs[i]}
	}
	if opts.SyncEvery > 0 {
		w.bg.Add(1)
		go w.flushLoop()
	}
	return w
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
	w.failWith(err)
	return *w.failed.Load()
}

// failWith latches like fail but returns this call's own ErrFailed-wrapped
// error rather than the globally latched first one, so a caller
// aggregating failures across streams (Sync's errors.Join) reports every
// stream's actual failure instead of the first one repeated.
func (w *WAL) failWith(err error) error {
	wrapped := fmt.Errorf("%w: %v", ErrFailed, err)
	w.failed.CompareAndSwap(nil, &wrapped)
	return wrapped
}

// streamFor routes a job to its stream: the same splitmix64 reduction the
// registry uses, so with Streams == Config.Shards a job's WAL stream is
// owned by the same index as its registry shard.
func (w *WAL) streamFor(jobID uint64) *walStream {
	return w.streams[wire.Mix64(jobID)%uint64(len(w.streams))]
}

// createSegmentLocked opens a fresh segment for s: name stamp from the
// global sequence, header chaining to the stream's last LSN. Called with
// s.mu held.
func (s *walStream) createSegmentLocked() error {
	w := s.w
	stamp := w.seq.Load()
	name := filepath.Join(w.dir, SegName(s.shard, stamp))
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
	// A fresh buffer, not the stream scratch: lazy creation runs mid-append
	// with the record payload already encoded into s.buf.
	var e wire.Enc
	wire.AppendSegHeaderPayload(&e, stamp, s.lastLSN, s.shard, len(w.streams))
	hdr := wire.AppendFrame(wire.AppendHeader(nil), wire.FrameSegHeader, e.B)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return w.fail(fmt.Errorf("serve/wal: segment header: %w", err))
	}
	s.f = f
	s.stamp = stamp
	s.written = int64(len(hdr))
	s.pending += int64(len(hdr))
	if s.pendingSince.IsZero() {
		s.pendingSince = time.Now()
	}
	// A recovered header-only segment (created, then crashed before its
	// first record) can share this stamp: Create truncated that file, so
	// replace its inventory entry instead of double-listing the name.
	if n := len(s.segs); n > 0 && s.segs[n-1].Seq == stamp {
		s.segs = s.segs[:n-1]
	}
	s.segs = append(s.segs, Entry{Name: SegName(s.shard, stamp), Seq: stamp})
	return nil
}

// rotateLocked writes what is staged, syncs and closes the open segment and
// starts a new one. Called with both s.syncMu and s.mu held; only called
// after at least one record was staged, so successive stamps are strictly
// increasing.
func (s *walStream) rotateLocked() error {
	if err := s.writeStagedLocked(); err != nil {
		return err
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return s.w.fail(err)
	}
	s.f = nil
	return s.createSegmentLocked()
}

func (s *walStream) syncLocked() error {
	if s.f == nil || s.pending == 0 {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return s.w.fail(fmt.Errorf("serve/wal: sync: %w", err))
	}
	s.syncs++
	s.pending = 0
	s.pendingSince = time.Time{}
	return nil
}

// flush is the group-commit fsync of one stream, staged frames written
// first. The fsync itself runs under syncMu only — mu is held just to write
// the stage and to capture and update bookkeeping — so stages to the stream
// proceed while their group commit is in flight. Bytes written after the
// capture stay pending (the fsync may or may not have covered them; the
// next flush settles it).
func (s *walStream) flush() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	err := s.writeStagedLocked()
	f, captured := s.f, s.pending
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if f == nil || captured == 0 {
		return nil
	}
	if err := f.Sync(); err != nil {
		// failWith, not fail: Sync joins every stream's flush error, and
		// each stream must contribute its own failure, not the first one
		// latched.
		return s.w.failWith(fmt.Errorf("serve/wal: sync: %w", err))
	}
	s.mu.Lock()
	s.syncs++
	s.pending -= captured // rotation is excluded by syncMu; pending only grew
	if s.pending == 0 {
		s.pendingSince = time.Time{}
	} else {
		s.pendingSince = time.Now()
	}
	s.mu.Unlock()
	return nil
}

// dirty reports whether the stream has staged or unsynced bytes.
func (s *walStream) dirty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.staged) > 0 || (s.f != nil && s.pending > 0)
}

// Sync makes every record staged so far durable (the group-commit flush).
// The dirty streams fsync concurrently, so group commit pays one fsync
// latency (but still one fsync per dirty stream). Per-stream failures are
// joined: a multi-stream flush failure reports every stream's error, not
// just the first.
func (w *WAL) Sync() error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.streams))
	for i, s := range w.streams {
		if !s.dirty() {
			continue
		}
		wg.Add(1)
		go func(i int, s *walStream) {
			defer wg.Done()
			errs[i] = s.flush()
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
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
				// device with another doomed fsync. Stop; Close still joins
				// a finished goroutine.
				return
			}
			w.Sync()
		}
	}
}

// NextLSN returns the next log sequence number to be assigned.
func (w *WAL) NextLSN() uint64 { return w.seq.Load() }

// Dir returns the WAL directory.
func (w *WAL) Dir() string { return w.dir }

// Streams reports the per-shard stream fan-out.
func (w *WAL) Streams() int { return len(w.streams) }

// Close writes what is staged, then syncs and closes the log. Appends after
// Close fail with ErrClosed.
func (w *WAL) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(w.stop)
	w.bg.Wait()
	var first error
	for _, s := range w.streams {
		s.syncMu.Lock()
		s.mu.Lock()
		err := s.writeStagedLocked()
		if err == nil {
			err = s.syncLocked()
		}
		if s.f != nil {
			if cerr := s.f.Close(); err == nil {
				err = cerr
			}
			s.f = nil
		}
		s.mu.Unlock()
		s.syncMu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}
