package serve

// snapshot.go is the server's durable image: a plain wire dump of the
// accepted stream. A job's state is a deterministic function of its spec and
// its accepted events — every refit trains on the view built at its
// boundary, and a fit that draws random numbers seeds them from the spec —
// so replaying those frames through a fresh server rebuilds every job bit
// for bit (TestSnapshotRestoreEquivalence, and the WAL's crash-at-any-byte
// sweeps). The write-ahead log already holds
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
// dump, a checkpoint base — by feeding it its frames (Feed). cfg follows
// NewServer's defaulting; it need not match the snapshotted server's (shard
// count is a concurrency knob, not state), but its predictor factory must be
// behavior-equivalent for the restored models to be faithful (see
// Config.NewPredictor). Fits the replay starts run on the refit pool and
// may still be running when RestoreServer returns, exactly as they would on
// a live server at the same point of the stream.
func RestoreServer(r io.Reader, cfg Config) (*Server, error) {
	sv := NewServer(cfg)
	if _, err := sv.Feed(wire.NewReader(r), nil); err != nil {
		return nil, fmt.Errorf("serve: restore: %w", err)
	}
	return sv, nil
}
