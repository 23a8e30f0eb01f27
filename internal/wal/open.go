package wal

// open.go is the package's constructor surface for callers above the
// storage layer. A recovering node replays the newest base (Snapshots),
// scans its directory past the base's floor (ScanDir), applies the records
// through its own visitor, then hands the Scan back to Open to reopen the
// log for appending at exactly the recovered position. The node never
// touches segment naming, the segment inventory or the checkpoint machinery
// (compaction, temp file, rename, prune, retire) — those are this package's,
// and a checkpoint reads only the log, never the node's state.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"

	"repro/internal/wire"
)

// NextLSN returns one past the last contiguously recovered record — the
// LSN the reopened log assigns next.
func (s Scan) NextLSN() uint64 { return s.next }

// Open reopens dir for appending at the position s recovered. shards is
// unused since the log became one stream; it stays because the benchmark
// module calls Open with it. Open probes that dir is writable — segment
// files are created lazily on the first append, and an unwritable directory
// must fail at startup with a clear error, not wedge the first mutation
// after the server is already serving. No segment is created here either:
// recovery never appends to a possibly-torn tail, and an idle log leaves no
// empty file.
func Open(dir string, shards int, s Scan, opts Options) (*WAL, error) {
	opts = opts.WithDefaults()
	probe := filepath.Join(dir, "wal-probe"+TmpSuffix)
	if f, err := opts.FS.Create(probe); err != nil {
		return nil, fmt.Errorf("serve: recover: wal dir %s is not writable: %w", dir, err)
	} else {
		f.Close()
		opts.FS.Remove(probe)
	}
	// Everything below the recovered position is on disk already: a commit
	// of a lower LSN has nothing to write or sync.
	next := max(s.next, 1)
	w := &WAL{
		dir:        dir,
		opts:       opts,
		lastLSN:    s.last,
		writtenLSN: next - 1,
		syncedLSN:  next - 1,
		segs:       s.segs,
		base:       s.floor,
		ckptCh:     make(chan struct{}, 1),
		stop:       make(chan struct{}),
	}
	w.seq.Store(next)
	if opts.SyncEvery > 0 {
		w.bg.Add(1)
		go w.flushLoop()
	}
	if opts.CheckpointEvery > 0 || opts.CheckpointBytes > 0 {
		w.bg.Add(1)
		go w.checkpointLoop()
	}
	return w, nil
}

// Checkpoint compacts the log below a fresh floor into one base file and
// retires the segments the base covers. It takes no lock a mutation holds
// beyond the log's own for the cut:
//
//   - the cut fixes the floor at the next LSN and commits everything staged
//     below it, so every record below the floor is in a segment file (an
//     fsync is the base's business: a power loss may take the log's tail
//     under the floor, never the base that holds it);
//   - the base, base-<floor>.dump, is a plain wire dump: the previous base's
//     frames, then the log's records between its floor and this one, in log
//     order, keeping the spec and event frames of every job with no drop
//     frame later in that stream (a dropped job leaves no trace, and a job
//     ID registered again after its drop keeps only its new life);
//   - it is written to a temp file, synced and renamed into place; then
//     every base but this one and the one it was compacted from is pruned,
//     and segments retire below the older of the two, so the fallback base
//     still chains to the retained log.
//
// A checkpoint with no record since the previous one returns that base.
// The automatic policy (Options.CheckpointEvery / CheckpointBytes) calls
// this too; whole checkpoints serialize. Returns the base path and how many
// segments were retired.
func (w *WAL) Checkpoint() (string, int, error) {
	path, retired, _, err := w.checkpoint(false)
	return path, retired, err
}

// OpenCheckpoint takes a checkpoint and opens its base for reading before a
// later checkpoint can prune it: the stream Server.Snapshot serves.
func (w *WAL) OpenCheckpoint() (io.ReadCloser, error) {
	_, _, rc, err := w.checkpoint(true)
	return rc, err
}

func (w *WAL) checkpoint(open bool) (path string, retired int, rc io.ReadCloser, err error) {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	fs, dir := w.opts.FS, w.dir
	floor, segs, err := w.cut()
	if err != nil {
		return "", 0, nil, fmt.Errorf("serve: checkpoint: %w", err)
	}
	prev := w.base
	path = filepath.Join(dir, SnapName(floor))
	if floor != prev {
		if err := w.compact(prev, floor, segs, path); err != nil {
			return "", 0, nil, fmt.Errorf("serve: checkpoint: %w", err)
		}
		w.base = floor
		// Keep this base and the one it was compacted from; retire only
		// below the older, so the fallback still chains to the retained log.
		if bases, err := ListSorted(fs, dir, SnapPrefix, SnapSuffix); err == nil {
			for _, b := range bases {
				if b.Seq != floor && b.Seq != prev {
					fs.Remove(filepath.Join(dir, b.Name))
				}
			}
		}
		retireFloor := floor
		if prev > 0 {
			retireFloor = prev
		}
		if retired, err = w.RetireBelow(retireFloor); err != nil {
			return path, retired, nil, fmt.Errorf("serve: checkpoint: retire: %w", err)
		}
	}
	w.checkpointDone(floor)
	if open {
		if rc, err = fs.Open(path); err != nil {
			return "", 0, nil, fmt.Errorf("serve: checkpoint: %w", err)
		}
	}
	return path, retired, rc, nil
}

// cut fixes a checkpoint's floor, commits the records below it, and
// returns it with the segments that hold them. Records staged after the
// floor is read may land in those segments too; the compaction stops at the
// floor.
func (w *WAL) cut() (uint64, []Entry, error) {
	if w.closed.Load() {
		return 0, nil, ErrClosed
	}
	floor := w.seq.Load()
	if err := w.Commit(floor - 1); err != nil {
		return 0, nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return floor, slices.Clone(w.segs), nil
}

// compact writes the base at floor from the base at prev (none when prev
// is 0) and the segments below floor, in two passes over that stream: the
// first finds each job's last drop frame, the second copies the frames
// that come after it.
func (w *WAL) compact(prev, floor uint64, segs []Entry, path string) error {
	lastDrop := map[uint64]int{}
	i := 0
	err := w.frames(prev, floor, segs, func(kind wire.FrameKind, job uint64, _ []byte) error {
		if kind == wire.FrameDrop {
			lastDrop[job] = i
		}
		i++
		return nil
	})
	if err != nil {
		return err
	}
	fs := w.opts.FS
	tmp := filepath.Join(w.dir, "checkpoint"+TmpSuffix)
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	_, err = bw.Write(wire.AppendHeader(nil))
	var frame []byte
	i = 0
	if err == nil {
		err = w.frames(prev, floor, segs, func(kind wire.FrameKind, job uint64, payload []byte) error {
			at := i
			i++
			if d, dropped := lastDrop[job]; kind == wire.FrameDrop || dropped && d > at {
				return nil
			}
			frame = wire.AppendFrame(frame[:0], kind, payload)
			_, err := bw.Write(frame)
			return err
		})
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	// The rename must be durable before anything it supersedes is removed;
	// the prune and retire unlinks need no dir sync of their own — a
	// forgotten unlink only leaves an extra file recovery tolerates.
	return fs.SyncDir(w.dir)
}

// frames visits, in log order, every frame of the base at prev and then
// every record of segs from prev up to floor, with the job it belongs to.
// The segments must hold every LSN below floor; reading stops there, so a
// record being appended past it is never read.
func (w *WAL) frames(prev, floor uint64, segs []Entry, visit func(kind wire.FrameKind, job uint64, payload []byte) error) error {
	fs := w.opts.FS
	each := func(kind wire.FrameKind, payload []byte) error {
		job, err := wire.FrameJobID(kind, payload)
		if err != nil {
			return err
		}
		return visit(kind, job, payload)
	}
	if prev > 0 {
		rc, err := fs.Open(filepath.Join(w.dir, SnapName(prev)))
		if err != nil {
			return err
		}
		err = eachFrame(rc, each)
		rc.Close()
		if err != nil {
			return err
		}
	}
	var rst RecoveryStats
	scan, err := scanSegs(fs, w.dir, segs, prev, &rst, func(lsn uint64, kind wire.FrameKind, payload []byte) error {
		if lsn >= floor {
			return errFloor
		}
		return each(kind, payload)
	})
	if err == errFloor {
		err = nil
	}
	if err == nil && scan.next != max(floor, 1) {
		err = fmt.Errorf("%w: the log below the floor %d ends at LSN %d", ErrGap, floor, scan.next-1)
	}
	return err
}

// errFloor stops a compaction's scan at the checkpoint floor.
var errFloor = errors.New("serve/wal: checkpoint floor reached")

// eachFrame calls visit for every frame of the wire stream r.
func eachFrame(r io.Reader, visit func(kind wire.FrameKind, payload []byte) error) error {
	wr := wire.NewReader(r)
	for {
		kind, payload, err := wr.NextFrame()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := visit(kind, payload); err != nil {
			return err
		}
	}
}
