package serve

// snapshot.go is the server's durable image: a plain wire dump of the
// accepted stream. A job's state is a deterministic function of its spec and
// its accepted events — every refit trains on the view built at its
// boundary, with a fresh seeded RNG — so replaying those frames through a
// fresh server rebuilds every job bit for bit (TestSnapshotRestoreEquivalence,
// and the WAL's crash-at-any-byte sweeps). The write-ahead log already holds
// the frames; a checkpoint compacts it into a base (wal.Checkpoint), and a
// snapshot is that base.

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/wire"
)

// ErrNoWAL reports a Snapshot of a server running without a write-ahead
// log: the snapshot is the log's compacted base, and there is no log to
// compact. The HTTP front answers 409.
var ErrNoWAL = errors.New("serve: a snapshot is the write-ahead log's compacted base; run the server with a WAL (nurdserve -wal)")

// Snapshot takes a checkpoint and streams its base to w: a wire dump of
// the spec and event frames of every job not dropped, in log order, which
// RestoreServer, nurdserve -replay and POST /ingest all load. It takes no
// job lock, so a slow destination never stalls ingest or queries. Counters
// the log does not carry — queries served, refit wall times — start from
// zero on a restored server.
func (sv *Server) Snapshot(w io.Writer) error {
	if sv.wal == nil {
		return ErrNoWAL
	}
	rc, err := sv.wal.OpenCheckpoint()
	if err != nil {
		return err
	}
	defer rc.Close()
	_, err = io.Copy(w, rc)
	return err
}

// RestoreServer builds a server from a wire stream — a snapshot, a trace
// dump, a checkpoint base — by applying its frames in order. cfg follows
// NewServer's defaulting; it need not match the snapshotted server's (shard
// count is a concurrency knob, not state), but its predictor factory must be
// behavior-equivalent for the restored models to be faithful (see
// Config.NewPredictor). Fits the replay starts run on the refit pool and
// may still be running when RestoreServer returns, exactly as they would on
// a live server at the same point of the stream.
func RestoreServer(r io.Reader, cfg Config) (*Server, error) {
	sv := NewServer(cfg)
	if err := sv.replay(r); err != nil {
		return nil, fmt.Errorf("serve: restore: %w", err)
	}
	return sv, nil
}

// replay applies every frame of the wire stream r.
func (sv *Server) replay(r io.Reader) error {
	wr := wire.NewReader(r)
	for {
		kind, payload, err := wr.NextFrame()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := sv.apply(kind, payload); err != nil {
			return err
		}
	}
}

// apply applies one spec, event or drop frame exactly as the live server
// applied the mutation it records: restore, recovery's base and its log
// tail all go through here. A frame that decodes but does not apply means
// the stream is not one a server accepted, and fails.
func (sv *Server) apply(kind wire.FrameKind, payload []byte) error {
	switch kind {
	case wire.FrameSpec:
		sp, err := wire.DecodeSpecPayload(payload)
		if err != nil {
			return err
		}
		return sv.StartJob(sp, nil)
	case wire.FrameEvent:
		// Pooled decode, as the HTTP ingest loop does: a heartbeat's
		// replaced observation goes back to the pool, not to the GC.
		var ev wire.Event
		if err := wire.DecodeEventInto(payload, &ev, true); err != nil {
			return err
		}
		err := sv.Ingest(ev)
		RecycleAfterIngest(&ev, err)
		return err
	case wire.FrameDrop:
		jobID, err := wire.DecodeDropPayload(payload)
		if err != nil {
			return err
		}
		return sv.DropJob(jobID)
	default:
		return fmt.Errorf("%w: frame kind %d where a spec, event or drop belongs", wire.ErrCorrupt, kind)
	}
}
