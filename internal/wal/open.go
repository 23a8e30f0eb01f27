package wal

// open.go is the package's constructor surface for callers above the
// storage layer. A recovering node scans its directory (ScanDir), applies
// the records through its own visitor, then hands the Scan back to Open to
// reopen the log for appending at exactly the recovered position. The node
// never touches segment naming or the segment inventory — those are this
// package's business — and the checkpoint machinery (temp file, rename,
// prune, retire) lives behind Checkpoint, so the node contributes only the
// snapshot bytes and their floor LSN.

import (
	"fmt"
	"io"
	"path/filepath"
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
		ckptCh:     make(chan struct{}, 1),
		stop:       make(chan struct{}),
	}
	w.seq.Store(next)
	if opts.SyncEvery > 0 {
		w.bg.Add(1)
		go w.flushLoop()
	}
	return w, nil
}

// Checkpoint writes one durable snapshot into the WAL directory and
// retires the history it covers. write produces the snapshot bytes and
// returns the floor LSN the snapshot is stamped with (every record below
// the floor is reflected in the bytes); the mechanics around it — temp
// file, fsync, rename into snap-<floor>.snap, directory sync, pruning to
// the newest two snapshot generations, and retiring segments wholly below
// the oldest kept snapshot's floor — are this package's. One older
// snapshot generation is kept so a crash that corrupts the newest file
// cannot orphan the log. The automatic checkpoint policy
// (Options.CheckpointEvery / CheckpointBytes) drives this through the run
// closure given to StartAutoCheckpoint; explicit calls remain available
// and serialize with it. Returns the snapshot path and how many segments
// were retired.
func (w *WAL) Checkpoint(write func(io.Writer) (uint64, error)) (string, int, error) {
	fs, dir := w.opts.FS, w.dir
	// The snapshot itself runs outside the log's mutexes (it takes job
	// locks; appends take job locks before the log's — holding both here
	// would deadlock against ingest). ckptMu serializes whole checkpoints,
	// so an automatic and an explicit call can never interleave writes into
	// one temp file or race the prune/retire bookkeeping.
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	tmp := filepath.Join(dir, "checkpoint"+TmpSuffix)
	f, err := fs.Create(tmp)
	if err != nil {
		return "", 0, fmt.Errorf("serve: checkpoint: %w", err)
	}
	floor, err := write(f)
	if err == nil {
		// Every record the snapshot reflects was staged before its job's
		// section was serialized. It must be in the log before the snapshot
		// can be recovered from: a snapshot ahead of the log would hand the
		// LSNs of records a crash lost to the next mutations, which replay
		// would then skip as already reflected.
		err = w.CommitAll()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(tmp)
		return "", 0, fmt.Errorf("serve: checkpoint: %w", err)
	}
	path := filepath.Join(dir, SnapName(floor))
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return "", 0, fmt.Errorf("serve: checkpoint: %w", err)
	}
	// The rename must be durable before anything it supersedes is removed;
	// the prune/retire unlinks below need no dir sync of their own — a
	// forgotten unlink only leaves an extra file recovery tolerates.
	if err := fs.SyncDir(dir); err != nil {
		return "", 0, fmt.Errorf("serve: checkpoint: sync dir: %w", err)
	}
	w.checkpointDone(floor)
	// Prune snapshots beyond the newest two, then retire segments only up
	// to the oldest *kept* snapshot's floor — both kept generations must
	// still chain to the retained log, or the fallback snapshot would be
	// useless exactly when it is needed.
	retireFloor := floor
	snaps, err := ListSorted(fs, dir, SnapPrefix, SnapSuffix)
	if err == nil {
		for i := 0; i+2 < len(snaps); i++ {
			fs.Remove(filepath.Join(dir, snaps[i].Name))
		}
		if len(snaps) >= 2 && snaps[len(snaps)-2].Seq < retireFloor {
			retireFloor = snaps[len(snaps)-2].Seq
		}
	}
	retired, err := w.RetireBelow(retireFloor)
	if err != nil {
		return path, retired, fmt.Errorf("serve: checkpoint: retire: %w", err)
	}
	return path, retired, nil
}

// Snapshots lists dir's snapshot files, oldest first, as full paths.
func Snapshots(fs FS, dir string) ([]string, error) {
	snaps, err := ListSorted(fs, dir, SnapPrefix, SnapSuffix)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(snaps))
	for i, s := range snaps {
		paths[i] = filepath.Join(dir, s.Name)
	}
	return paths, nil
}
