package serve

import (
	"fmt"
	"io"

	"repro/internal/wal"
	"repro/internal/wire"
)

// Recover rebuilds a server from dir (point-in-time recovery: newest valid
// snapshot + WAL replay), reopens the log for appending at the recovered
// position, and attaches it, so the returned server logs every subsequent
// mutation (and, when wal.Options arms the checkpoint policy, checkpoints
// itself). dir must exist; a fresh empty directory recovers to an empty
// server (first boot). cfg follows NewServer's defaulting and must carry a
// predictor factory equivalent to the crashed server's (see
// Config.NewPredictor). The caller owns Close on the returned WAL.
func Recover(dir string, cfg Config, opts wal.Options) (*Server, *wal.WAL, wal.RecoveryStats, error) {
	opts = opts.WithDefaults()
	var rst wal.RecoveryStats

	snaps, err := wal.Snapshots(opts.FS, dir)
	if err != nil {
		return nil, nil, rst, fmt.Errorf("serve: recover: wal dir %s: %w", dir, err)
	}

	// Newest restorable snapshot wins; a corrupt one (crash while its
	// predecessor segments were already retired would lose data, which is
	// why checkpoints retain one older generation) falls back to the next.
	// No snapshot at all means a full-log replay from LSN 1.
	sv := (*Server)(nil)
	var floor uint64
	for i := len(snaps) - 1; i >= 0 && sv == nil; i-- {
		path := snaps[i]
		rc, err := opts.FS.Open(path)
		if err != nil {
			continue
		}
		restored, fl, err := restoreServer(rc, cfg)
		rc.Close()
		if err != nil {
			continue
		}
		sv, floor = restored, fl
		rst.SnapshotPath, rst.SnapshotLSN = path, fl
	}
	if sv == nil {
		sv = NewServer(cfg)
	}

	scan, err := wal.ScanDir(opts.FS, dir, floor, true, &rst, func(lsn uint64, kind wire.FrameKind, payload []byte) error {
		return applyWALRecord(sv, kind, payload, lsn, floor, &rst)
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

// applyWALRecord applies one decoded WAL record to sv, enforcing the
// exact-once rules: records below the snapshot floor are skipped wholesale
// (the floor proof in snapshotWithFloor guarantees they are reflected), and
// records at or above it are skipped per job when the job's snapshot
// section already carries an LSN at least as new (the mid-traffic snapshot
// case). Mutations that decode but cannot apply cleanly mean the log and
// the snapshot disagree — recovery fails typed instead of guessing.
// Recovery is single-threaded, so the jobState resolved once per record
// stays valid across the apply (only a wire.FrameDrop removes it, and that is
// the record being applied).
func applyWALRecord(sv *Server, kind wire.FrameKind, payload []byte, lsn, floor uint64, rst *wal.RecoveryStats) error {
	if lsn < floor {
		rst.RecordsSkipped++
		return nil
	}
	switch kind {
	case wire.FrameSpec:
		sp, err := wire.DecodeSpecPayload(payload)
		if err != nil {
			return err
		}
		if j, ok := sv.reg.shardFor(sp.JobID).lookup(sp.JobID); ok {
			if j.lsn >= lsn {
				rst.RecordsSkipped++
				return nil
			}
			return fmt.Errorf("%w: job %d re-registered at LSN %d while live since LSN %d",
				wire.ErrCorrupt, sp.JobID, lsn, j.lsn)
		}
		if err := sv.StartJob(sp, nil); err != nil {
			return err
		}
		if j, ok := sv.reg.shardFor(sp.JobID).lookup(sp.JobID); ok {
			j.lsn = lsn
		}
		rst.RecordsApplied++
		return nil
	case wire.FrameEvent, wire.FrameFinish:
		var ev wire.Event
		var err error
		if kind == wire.FrameEvent {
			ev, err = wire.DecodeEventPayload(payload)
		} else {
			ev.Kind = wire.EventJobFinish
			ev.JobID, ev.Time, err = wire.DecodeFinishPayload(payload)
		}
		if err != nil {
			return err
		}
		j, ok := sv.reg.shardFor(ev.JobID).lookup(ev.JobID)
		if !ok {
			// The job's drop landed before the snapshot cut; its late events
			// (a benign race the live server drains as drops) have nothing
			// left to apply to.
			rst.RecordsOrphaned++
			return nil
		}
		if j.lsn >= lsn {
			rst.RecordsSkipped++
			return nil
		}
		if err := sv.Ingest(ev); err != nil {
			return err
		}
		j.lsn = lsn
		rst.RecordsApplied++
		return nil
	case wire.FrameDrop:
		jobID, err := wire.DecodeDropPayload(payload)
		if err != nil {
			return err
		}
		j, ok := sv.reg.shardFor(jobID).lookup(jobID)
		if !ok {
			rst.RecordsOrphaned++
			return nil
		}
		if j.lsn >= lsn {
			rst.RecordsSkipped++
			return nil
		}
		if err := sv.DropJob(jobID); err != nil {
			return err
		}
		rst.RecordsApplied++
		return nil
	default:
		return fmt.Errorf("%w: frame kind %d in a WAL segment", wire.ErrCorrupt, kind)
	}
}

// CheckpointWAL writes a durable snapshot into the WAL directory (stamped
// with its floor LSN) and retires every WAL segment wholly below the
// floor; the file mechanics (temp file, rename, pruning to two
// kept generations, retirement) are wal.Checkpoint's. The automatic
// checkpoint policy (wal.Options.CheckpointEvery / CheckpointBytes) calls
// this on its triggers; explicit calls remain available and serialize with
// it. Returns the snapshot path and how many segments were retired.
func (sv *Server) CheckpointWAL() (string, int, error) {
	w := sv.wal
	if w == nil {
		return "", 0, fmt.Errorf("serve: checkpoint: no WAL attached")
	}
	// The snapshot runs outside the log's mutexes (it takes job locks;
	// appends take job locks before the log's — holding both would
	// deadlock against ingest); wal.Checkpoint serializes whole
	// checkpoints against each other.
	return w.Checkpoint(func(f io.Writer) (uint64, error) {
		return sv.snapshotWithFloor(f)
	})
}
