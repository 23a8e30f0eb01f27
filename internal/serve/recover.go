package serve

import (
	"fmt"
	"path/filepath"

	"repro/internal/wal"
	"repro/internal/wire"
)

// Recover rebuilds a server from dir — the newest valid checkpoint base,
// then the log past its floor — reopens the log for appending at the
// recovered position, and attaches it, so the returned server logs every
// subsequent mutation (and, when wal.Options arms the checkpoint policy,
// checkpoints itself). dir must exist; a fresh empty directory recovers to
// an empty server (first boot). cfg follows NewServer's defaulting and must
// carry a predictor factory equivalent to the crashed server's (see
// Config.NewPredictor). The caller owns Close on the returned WAL.
func Recover(dir string, cfg Config, opts wal.Options) (*Server, *wal.WAL, wal.RecoveryStats, error) {
	opts = opts.WithDefaults()
	var rst wal.RecoveryStats

	bases, err := wal.Snapshots(opts.FS, dir)
	if err != nil {
		return nil, nil, rst, fmt.Errorf("serve: recover: wal dir %s: %w", dir, err)
	}

	// The newest base that replays wins; a damaged one falls back to the
	// base it was compacted from, which checkpoints keep, with the log
	// retained from its floor. No base at all means a full-log replay from
	// LSN 1.
	var sv *Server
	var floor uint64
	for i := len(bases) - 1; i >= 0 && sv == nil; i-- {
		path := filepath.Join(dir, bases[i].Name)
		rc, err := opts.FS.Open(path)
		if err != nil {
			continue
		}
		s := NewServer(cfg)
		_, err = s.Feed(wire.NewReader(rc), nil)
		rc.Close()
		if err != nil {
			continue
		}
		sv, floor = s, bases[i].Seq
		rst.SnapshotPath, rst.SnapshotLSN = path, floor
	}
	if sv == nil {
		sv = NewServer(cfg)
	}

	// The tail applies frame by frame through Feed's step; nothing is
	// logged yet, so there is nothing to commit.
	var tail body
	var fed Fed
	scan, err := wal.ScanDir(opts.FS, dir, floor, true, &rst, func(lsn uint64, kind wire.FrameKind, payload []byte) error {
		if err := sv.step(kind, payload, &tail, admitAll, &fed); err != nil {
			return fmt.Errorf("serve: recover: LSN %d: %w", lsn, err)
		}
		rst.RecordsApplied++
		return nil
	})
	if err != nil {
		return nil, nil, rst, err
	}
	rst.NextLSN = scan.NextLSN()

	w, err := wal.Open(dir, sv.NumShards(), scan, opts)
	if err != nil {
		return nil, nil, rst, err
	}
	sv.attachWAL(w)
	return sv, w, rst, nil
}

// CheckpointWAL compacts the write-ahead log into a new base and retires
// the segments it covers (see wal.Checkpoint); it reads the log, not the
// server, so it takes no job lock. The automatic checkpoint policy
// (wal.Options.CheckpointEvery / CheckpointBytes) runs the same compaction
// on its triggers; explicit calls serialize with it. Returns the base path
// and how many segments were retired.
func (sv *Server) CheckpointWAL() (string, int, error) {
	if sv.wal == nil {
		return "", 0, fmt.Errorf("serve: checkpoint: no WAL attached")
	}
	return sv.wal.Checkpoint()
}
