package serve

// snapshot.go makes a Server's in-memory serving state durable. A snapshot
// is a wire stream (package wire) of per-job sections: one
// wire.FrameSnapJob carrying the job's spec, counters, and full per-task
// state (including the terminated set), followed by one
// wire.FrameSnapCheckpoint per gated checkpoint boundary the job's predictor
// has seen.
//
// Restore rebuilds each job's predictor through Config.NewPredictor and
// replays the recorded checkpoint views through it in order. Every model
// refit in this repository draws from a fresh seeded RNG, so the replayed
// predictor reaches bit-identical internal state (models, calibration
// terms, confirmation streaks) — a restored server answers Query and
// IsStraggler exactly as the snapshotted one would, and finishing an
// interrupted event stream on it produces the same verdicts and F1 as a
// server that never died (see TestSnapshotRestoreEquivalence).

import (
	"fmt"
	"io"
	"time"

	"repro/internal/simulator"
	"repro/internal/wire"
)

// snapshot task-state flag bits.
const (
	snapStarted    = 1 << 0
	snapFinished   = 1 << 1
	snapTerminated = 1 << 2
	snapFeatures   = 1 << 3
	snapDone       = 1 << 0 // job flags
	snapFailed     = 1 << 1
)

// Snapshot serializes every registered job to w as a restorable wire
// stream. Each job is serialized under its own lock, so a snapshot taken
// while streams are in flight is per-job consistent (every job lands on an
// event boundary) but not a global cut across jobs; quiesce ingestion first
// if a globally consistent image is required. Dropped jobs do not appear,
// and their historical counter contributions are not carried.
//
// Only the in-memory encoding happens under a job's lock: frames are
// buffered first and written to w with the lock released, so a slow
// destination (a stalled GET /snapshot client under TCP backpressure, say)
// never holds a job lock and never blocks that job's Ingest or Query. Only
// the job frame is encoded under the lock; checkpoint frames are encoded
// from a shallow copy of the history slice (its entries are immutable once
// appended — see jobState.history), keeping peak buffering at one frame.
func (sv *Server) Snapshot(w io.Writer) error {
	_, err := sv.snapshotWithFloor(w)
	return err
}

// snapshotWithFloor writes the snapshot stream and returns its floor LSN:
// every WAL record below the floor is reflected in the stream, so segments
// wholly below it can be retired once the snapshot is durable. The floor is
// read from the attached WAL before any job is serialized — a record logged
// before that read was applied (and logged) under the same job lock its
// section is later serialized under, so it cannot be missed. Servers
// without a WAL stamp floor 0 (replay-nothing).
func (sv *Server) snapshotWithFloor(w io.Writer) (uint64, error) {
	var floor uint64
	if sv.wal != nil {
		floor = sv.wal.NextLSN()
	}
	// Emit the header even for a job-less server: an empty snapshot is a
	// valid stream that restores to an empty server, not a decode error.
	var e wire.Enc
	wire.AppendLSNMarkPayload(&e, floor)
	if _, err := w.Write(wire.AppendFrame(wire.AppendHeader(nil), wire.FrameLSNMark, e.B)); err != nil {
		return floor, err
	}
	var buf, payload []byte
	var history []*simulator.Checkpoint
	for _, id := range sv.JobIDs() {
		s := sv.reg.shardFor(id)
		j, ok := s.lookup(id)
		if !ok {
			continue // dropped since the listing
		}
		j.mu.Lock()
		var err error
		buf, err = appendSnapJobFrame(buf[:0], j)
		history = append(history[:0], j.history...)
		j.mu.Unlock()
		if err != nil {
			return floor, fmt.Errorf("serve: snapshot job %d: %w", id, err)
		}
		if _, err := w.Write(buf); err != nil {
			return floor, fmt.Errorf("serve: snapshot job %d: %w", id, err)
		}
		for _, cp := range history {
			payload = appendCheckpointPayload(payload[:0], cp)
			if buf, err = wire.AppendCheckedFrame(buf[:0], wire.FrameSnapCheckpoint, payload); err != nil {
				return floor, fmt.Errorf("serve: snapshot job %d: %w", id, err)
			}
			if _, err := w.Write(buf); err != nil {
				return floor, fmt.Errorf("serve: snapshot job %d: %w", id, err)
			}
		}
	}
	return floor, nil
}

// appendSnapJobFrame appends one job's wire.FrameSnapJob frame to dst; the caller
// holds j.mu and is responsible for emitting the len(j.history) checkpoint
// frames the job frame announces. The format's size caps (frame payload,
// retained checkpoints, refits) are enforced here on the write side,
// mirroring the decoder's, so a job that exceeds them fails loudly at
// snapshot time, not at restore time. (Semantic counter checks — counts
// within [0,ntasks], non-negative durations — remain restore-side only:
// they guard against hostile streams, not states a live job can reach.)
func appendSnapJobFrame(dst []byte, j *jobState) ([]byte, error) {
	if len(j.history) > wire.MaxSnapCheckpoints {
		return dst, fmt.Errorf("serve: %d retained checkpoints above the snapshot cap %d", len(j.history), wire.MaxSnapCheckpoints)
	}
	if j.refits > wire.MaxSnapCheckpoints {
		return dst, fmt.Errorf("serve: %d refits above the snapshot cap %d", j.refits, wire.MaxSnapCheckpoints)
	}
	var e wire.Enc
	if err := wire.AppendSpecPayload(&e, &j.spec); err != nil {
		return dst, err
	}
	e.F64(j.clock)
	e.I64(int64(j.nextCP))
	e.I64(int64(j.checkpoint))
	var flags uint8
	if j.done {
		flags |= snapDone
	}
	if j.failed {
		flags |= snapFailed
	}
	e.U8(flags)
	e.I64(int64(j.started))
	e.I64(int64(j.finished))
	e.I64(int64(j.terminated))
	e.I64(int64(j.refits))
	e.I64(int64(j.refitDur))
	e.I64(int64(j.refitMax))
	e.U64(j.events)
	e.U64(j.dropped)
	e.U64(j.queries)
	e.U64(j.lsn)
	e.U64(j.warmFits)
	e.U64(j.scratchFits)
	e.U32(uint32(len(j.tasks)))
	for i := range j.tasks {
		ts := &j.tasks[i]
		var tf uint8
		if ts.started {
			tf |= snapStarted
		}
		if ts.finished {
			tf |= snapFinished
		}
		if ts.terminated {
			tf |= snapTerminated
		}
		if ts.features != nil {
			tf |= snapFeatures
		}
		e.U8(tf)
		e.F64(ts.start)
		e.F64(ts.latency)
		e.I64(int64(ts.flaggedAt))
		if ts.features != nil {
			e.Floats(ts.features)
		}
	}
	e.U32(uint32(len(j.history)))
	return wire.AppendCheckedFrame(dst, wire.FrameSnapJob, e.B)
}

func appendCheckpointPayload(dst []byte, cp *simulator.Checkpoint) []byte {
	e := wire.Enc{B: dst}
	e.I64(int64(cp.Index))
	e.F64(cp.Norm)
	e.F64(cp.TauRun)
	e.F64(cp.TauStra)
	e.F64(cp.StragglerQuantile)
	e.U32(uint32(len(cp.FinishedIDs)))
	for i, id := range cp.FinishedIDs {
		e.I64(int64(id))
		e.F64(cp.FinishedY[i])
		e.Floats(cp.FinishedX[i])
	}
	e.U32(uint32(len(cp.RunningIDs)))
	for i, id := range cp.RunningIDs {
		e.I64(int64(id))
		e.F64(cp.RunningElapsed[i])
		e.Floats(cp.RunningX[i])
	}
	return e.B
}

func decodeCheckpointPayload(p []byte) (*simulator.Checkpoint, error) {
	d := wire.Dec{B: p}
	cp := &simulator.Checkpoint{
		Index:             int(d.I64()),
		Norm:              d.F64(),
		TauRun:            d.F64(),
		TauStra:           d.F64(),
		StragglerQuantile: d.F64(),
	}
	nfin := d.Count(wire.MaxSnapRows, "finished rows")
	for i := 0; i < nfin && d.Err() == nil; i++ {
		cp.FinishedIDs = append(cp.FinishedIDs, int(d.I64()))
		cp.FinishedY = append(cp.FinishedY, d.F64())
		cp.FinishedX = append(cp.FinishedX, d.Floats(wire.MaxWireFeatures, "features"))
	}
	nrun := d.Count(wire.MaxSnapRows, "running rows")
	for i := 0; i < nrun && d.Err() == nil; i++ {
		cp.RunningIDs = append(cp.RunningIDs, int(d.I64()))
		cp.RunningElapsed = append(cp.RunningElapsed, d.F64())
		cp.RunningX = append(cp.RunningX, d.Floats(wire.MaxWireFeatures, "features"))
	}
	return cp, d.Finish()
}

// decodeSnapJob rebuilds a jobState (predictor not yet attached) and
// returns how many checkpoint frames follow it.
func decodeSnapJob(p []byte) (*jobState, int, error) {
	d := wire.Dec{B: p}
	sp := wire.DecodeSpec(&d)
	if d.Err() != nil {
		return nil, 0, d.Err()
	}
	if err := sp.Validate(); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", wire.ErrCorrupt, err)
	}
	j := &jobState{
		spec: sp,
		warm: simulator.WarmCount(sp.NumTasks, sp.WarmFrac),
	}
	j.clock = d.F64()
	j.nextCP = int(d.I64())
	j.checkpoint = int(d.I64())
	flags := d.U8()
	j.done = flags&snapDone != 0
	j.failed = flags&snapFailed != 0
	j.started = int(d.I64())
	j.finished = int(d.I64())
	j.terminated = int(d.I64())
	j.refits = int(d.I64())
	j.refitDur = time.Duration(d.I64())
	j.refitMax = time.Duration(d.I64())
	j.events = d.U64()
	j.dropped = d.U64()
	j.queries = d.U64()
	j.lsn = d.U64()
	j.warmFits = d.U64()
	j.scratchFits = d.U64()
	ntasks := d.Count(wire.MaxSnapTasks, "tasks")
	if d.Err() == nil && ntasks != sp.NumTasks {
		return nil, 0, fmt.Errorf("%w: job %d: %d serialized tasks for a %d-task spec",
			wire.ErrCorrupt, sp.JobID, ntasks, sp.NumTasks)
	}
	j.tasks = make([]taskState, ntasks)
	for i := 0; i < ntasks && d.Err() == nil; i++ {
		ts := &j.tasks[i]
		tf := d.U8()
		ts.started = tf&snapStarted != 0
		ts.finished = tf&snapFinished != 0
		ts.terminated = tf&snapTerminated != 0
		ts.start = d.F64()
		ts.latency = d.F64()
		ts.flaggedAt = int(d.I64())
		if tf&snapFeatures != 0 {
			ts.features = d.Floats(wire.MaxWireFeatures, "features")
			// The live ingest path enforces len(features) == len(Schema)
			// per heartbeat; a snapshot violating it must fail here, not as
			// a predictor dimension error checkpoints later.
			if d.Err() == nil && len(ts.features) != len(sp.Schema) {
				return nil, 0, fmt.Errorf("%w: job %d task %d: %d features for schema of %d",
					wire.ErrCorrupt, sp.JobID, i, len(ts.features), len(sp.Schema))
			}
		}
	}
	ncps := d.Count(wire.MaxSnapCheckpoints, "checkpoints")
	if err := d.Finish(); err != nil {
		return nil, 0, err
	}
	if j.nextCP < 1 || j.nextCP > sp.Checkpoints+1 {
		return nil, 0, fmt.Errorf("%w: job %d: next checkpoint %d outside [1,%d]",
			wire.ErrCorrupt, sp.JobID, j.nextCP, sp.Checkpoints+1)
	}
	if j.checkpoint < 0 || j.checkpoint > sp.Checkpoints {
		return nil, 0, fmt.Errorf("%w: job %d: last checkpoint %d outside [0,%d]",
			wire.ErrCorrupt, sp.JobID, j.checkpoint, sp.Checkpoints)
	}
	// Counters fold into unsigned shard totals at install time; a hostile
	// negative value would wrap Stats to ~1.8e19, so reject it here.
	for _, c := range []struct {
		name string
		v    int
		max  int
	}{
		{"started", j.started, ntasks},
		{"finished", j.finished, ntasks},
		{"terminated", j.terminated, ntasks},
		{"refits", j.refits, wire.MaxSnapCheckpoints},
	} {
		if c.v < 0 || c.v > c.max {
			return nil, 0, fmt.Errorf("%w: job %d: %s count %d outside [0,%d]",
				wire.ErrCorrupt, sp.JobID, c.name, c.v, c.max)
		}
	}
	if j.refitDur < 0 || j.refitMax < 0 {
		return nil, 0, fmt.Errorf("%w: job %d: negative refit duration", wire.ErrCorrupt, sp.JobID)
	}
	// The refit pipeline's invariant: every retained view is either applied
	// (counted in refits) or the single captured-but-pending one a snapshot
	// can catch in flight on a live job. Anything else cannot be a state a
	// server produced.
	if pending := ncps - j.refits; pending < 0 || pending > 1 || (pending == 1 && j.done) {
		return nil, 0, fmt.Errorf("%w: job %d: %d retained checkpoints for %d applied refits (done=%v)",
			wire.ErrCorrupt, sp.JobID, ncps, j.refits, j.done)
	}
	return j, ncps, nil
}

// RestoreServer rebuilds a server from a snapshot stream written by
// Server.Snapshot. cfg follows NewServer's defaulting; it need not match
// the snapshotted server's (shard count is a concurrency knob, not state),
// but its predictor factory must be behavior-equivalent for the restored
// models to be faithful (see Config.NewPredictor).
//
// For every job, the recorded checkpoint views are replayed through a fresh
// predictor — the "refit on restore" that rebuilds model state without
// serializing model internals. A predictor error during replay aborts the
// restore: it means the factory does not match the snapshot's history.
func RestoreServer(r io.Reader, cfg Config) (*Server, error) {
	sv, _, err := restoreServer(r, cfg)
	return sv, err
}

// restoreServer additionally returns the snapshot's floor LSN (the stamp
// snapshotWithFloor embedded; 0 for snapshots taken without a WAL), which
// Recover uses to position the log replay.
func restoreServer(r io.Reader, cfg Config) (*Server, uint64, error) {
	sv := NewServer(cfg)
	wr := wire.NewReader(r)
	var floor uint64
	first := true
	for {
		kind, payload, err := wr.NextFrame()
		if err == io.EOF {
			return sv, floor, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("serve: restore: %w", err)
		}
		if first && kind == wire.FrameLSNMark {
			first = false
			if floor, err = wire.DecodeLSNMarkPayload(payload); err != nil {
				return nil, 0, fmt.Errorf("serve: restore: %w", err)
			}
			continue
		}
		first = false
		if kind != wire.FrameSnapJob {
			return nil, 0, fmt.Errorf("serve: restore: %w: frame kind %d where a snapshot job section was expected", wire.ErrCorrupt, kind)
		}
		j, ncps, err := decodeSnapJob(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("serve: restore: %w", err)
		}
		// Restored jobs consume registration budget exactly as StartJob
		// registrations do; reserving before the checkpoint replay fails an
		// over-budget restore before any model refitting is spent on it. No
		// release on later errors: the partial server is discarded.
		if err := sv.reserve(j.spec.NumTasks); err != nil {
			return nil, 0, fmt.Errorf("serve: restore job %d: %w", j.spec.JobID, err)
		}
		j.history = make([]*simulator.Checkpoint, ncps)
		for i := range j.history {
			kind, payload, err := wr.NextFrame()
			if err != nil {
				return nil, 0, fmt.Errorf("serve: restore job %d: checkpoint %d/%d: %w", j.spec.JobID, i+1, ncps, err)
			}
			if kind != wire.FrameSnapCheckpoint {
				return nil, 0, fmt.Errorf("serve: restore job %d: %w: frame kind %d where checkpoint %d/%d was expected",
					j.spec.JobID, wire.ErrCorrupt, kind, i+1, ncps)
			}
			if j.history[i], err = decodeCheckpointPayload(payload); err != nil {
				return nil, 0, fmt.Errorf("serve: restore job %d: checkpoint %d/%d: %w", j.spec.JobID, i+1, ncps, err)
			}
		}
		pred := sv.cfg.NewPredictor(j.spec)
		if pred == nil {
			return nil, 0, fmt.Errorf("serve: restore job %d: nil predictor from factory", j.spec.JobID)
		}
		pred.Reset()
		j.pred = pred
		// Replay only the *applied* views inline: a snapshot taken with a
		// refit in flight retains the pending view as its last history entry,
		// and install re-enqueues that one through the refit pipeline so the
		// restored server holds exactly the live server's state — generation
		// j.refits published, one fit pending.
		for i := 0; i < j.refits; i++ {
			if j.failed && i == j.refits-1 {
				// The live server publishes only on successful applies, so
				// its query-visible model predates the failing fit; publish
				// before replaying it.
				j.publish()
			}
			if _, err := pred.Predict(j.history[i]); err != nil {
				// A job closed by a predictor failure recorded the failing
				// boundary as its final history entry; the same failure on
				// replay is the expected outcome, not a factory mismatch.
				if j.failed && i == j.refits-1 {
					break
				}
				return nil, 0, fmt.Errorf("serve: restore job %d: replaying checkpoint %d/%d through %s: %w",
					j.spec.JobID, i+1, ncps, pred.Name(), err)
			}
		}
		if !j.failed {
			j.publish()
		}
		if err := sv.reg.shardFor(j.spec.JobID).install(j); err != nil {
			return nil, 0, err
		}
	}
}
