package servehttp

// replay.go loads a recorded trace dump — a wire stream of wire.JobSpec
// registrations followed by their jobs' merged, time-ordered event feeds
// (cmd/tracegen -format wire emits them) — into a server in-process, as fast
// as the server ingests. The serving clock is virtual (state changes order by
// event Time, not arrival time), so nothing about the outcome depends on when
// an element arrives. A dump is also a valid POST /ingest body: a remote
// server loads one in a single request (TestDumpAsIngestBodyMatchesReplay),
// and cmd/nurdload drives paced, open-loop traffic.

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	// Specs and Events count the dump elements the server accepted.
	Specs, Events int
	// Shed counts heartbeats the server refused under overload (serve.ErrShed);
	// the replay continues past them — shedding is load policy, not a dump
	// error. Only possible when replaying into a server that is also
	// taking other traffic: a lone replayer can never saturate the ingest
	// queue by itself.
	Shed int
	// Wall is the wall-clock duration of the replay.
	Wall time.Duration
}

// Rate returns the achieved ingest rate in events per second: 0 for an
// empty replay or a non-positive wall time (never Inf or NaN).
func (st ReplayStats) Rate() float64 {
	if st.Wall <= 0 || st.Events == 0 {
		return 0
	}
	return float64(st.Events) / st.Wall.Seconds()
}

// Replay streams a recorded dump from r into sv. Spec frames register jobs
// (through the server's predictor factory); event frames are ingested in
// dump order. The first skip elements (specs and events combined, in dump
// order) are decoded but not applied: a server recovered from its WAL
// reports how many mutations it already holds (RecoveryStats.NextLSN-1), and
// passing that as skip continues the same dump without double-applying a
// single element (each accepted dump element is exactly one WAL record). The
// first error — a corrupt frame, an unknown job, a protocol violation —
// aborts the replay.
func Replay(sv Backend, r io.Reader, skip int) (ReplayStats, error) {
	var st ReplayStats
	wr := wire.NewReader(r)
	start := time.Now()
	// Pooled decode, as in the HTTP ingest loop: one wire.Event reused across
	// the dump, feature slices drawn from (and, when not retained,
	// returned to) the ingest observation pool.
	var ev wire.Event
	body := serve.NewBody(wr)
	for {
		sp, err := wr.NextInto(&ev)
		if err == io.EOF {
			st.Wall = time.Since(start)
			return st, nil
		}
		if err != nil {
			return st, fmt.Errorf("serve: replay: %w", err)
		}
		if skip > 0 {
			skip--
			serve.RecycleAfterIngest(&ev, errSkipped)
			continue
		}
		if sp != nil {
			if err := sv.StartJob(*sp, nil); err != nil {
				return st, fmt.Errorf("serve: replay: %w", err)
			}
			st.Specs++
			continue
		}
		// Ingest's contract, one event at a time, staged through the dump's
		// Body so its log record is the frame read from the dump.
		if err = sv.StageEvent(ev, body); err == nil {
			err = sv.Commit()
		}
		serve.RecycleAfterIngest(&ev, err)
		if err != nil {
			if errors.Is(err, serve.ErrShed) {
				st.Shed++
				continue
			}
			return st, fmt.Errorf("serve: replay event %d: %w", st.Events, err)
		}
		st.Events++
	}
}

// errSkipped marks a decoded-but-not-applied replay element so its pooled
// observation is recycled like any other non-ingested event.
var errSkipped = errors.New("serve: replay element skipped")
