package servehttp

// replay.go is the file/replay ingestion backend: recorded trace dumps —
// wire streams of wire.JobSpec registrations followed by their jobs' merged,
// time-ordered event feeds (cmd/tracegen -format wire emits them) — are
// streamed back into a serve.Server at a configurable multiple of recorded time,
// either through in-process Ingest calls or through a serve.Server's HTTP front
// end. Because the serving clock is virtual (state changes order by event
// Time, not arrival time), the replay speedup affects only wall-clock
// pacing: the same dump produces identical final per-job reports at any
// speedup (test-enforced by TestReplayDeterminism).

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	// Specs and Events count the dump elements applied: for Replay, accepted
	// by the serve.Server; for ReplayHTTP, carried by a batch the front end
	// acknowledged with 200 (elements queued in a failed flush are not
	// counted).
	Specs, Events int
	// Shed counts heartbeats the server refused under overload (serve.ErrShed);
	// the replay continues past them — shedding is load policy, not a dump
	// error. Only possible when replaying into a server that is also
	// taking other traffic: a lone replayer can never saturate the ingest
	// queue by itself.
	Shed int
	// Wall is the wall-clock duration of the replay, measured from the
	// first paced event (pacing on) or from the start of the dump (pacing
	// off).
	Wall time.Duration
	// MaxLag is the worst observed distance behind the absolute pacing
	// schedule: how late the slowest event fired relative to
	// start + (eventTime - firstEventTime)/speedup. Zero when unpaced. A
	// paced replay that cannot keep up (slow server, slow disk) shows it
	// here instead of silently stretching the schedule.
	MaxLag time.Duration
}

// Rate returns the achieved ingest rate in events per second: 0 for an
// empty replay or a non-positive wall time (never Inf or NaN).
func (st ReplayStats) Rate() float64 {
	if st.Wall <= 0 || st.Events == 0 {
		return 0
	}
	return float64(st.Events) / st.Wall.Seconds()
}

// pacer maps a dump's recorded virtual timeline onto the wall clock against
// an ABSOLUTE schedule: every event's due time is derived from one fixed
// origin (first paced event = origin instant), never from the previous
// event's actual send. Per-event sleep jitter therefore cannot accumulate
// into drift — an oversleep makes the next ahead smaller, and the schedule
// self-corrects (regression-tested by TestReplayPacingNoDrift).
type pacer struct {
	speedup float64
	origin  time.Time
	t0      float64
	on      bool
	maxLag  time.Duration
}

// schedule returns how far ahead of the event's due time the clock is
// (negative when behind). The first call fixes the schedule origin at the
// current instant. Lateness is folded into maxLag.
func (p *pacer) schedule(evTime float64) time.Duration {
	if p.speedup <= 0 {
		return 0
	}
	if !p.on {
		// The recorded timeline starts at the first event; clock the pacing
		// from there so leading registration time is free.
		p.t0, p.on = evTime, true
		p.origin = time.Now()
		return 0
	}
	due := time.Duration((evTime - p.t0) / p.speedup * float64(time.Second))
	ahead := due - time.Since(p.origin)
	if lag := -ahead; lag > p.maxLag {
		p.maxLag = lag
	}
	return ahead
}

// sleep blocks for ahead when it exceeds the 1ms scheduling tolerance
// (sleeping for less costs more in timer overhead than it buys in
// fidelity; the absolute schedule absorbs the slack).
func (p *pacer) sleep(ahead time.Duration) {
	if ahead > time.Millisecond {
		time.Sleep(ahead)
	}
}

// wall returns the replay duration: since the schedule origin when pacing
// engaged, else since fallback.
func (p *pacer) wall(fallback time.Time) time.Duration {
	if p.on {
		return time.Since(p.origin)
	}
	return time.Since(fallback)
}

// Replay streams a recorded dump from r into sv. Spec frames register jobs
// (through the server's predictor factory); event frames are ingested in
// dump order. speedup maps the recorded virtual timeline onto the wall
// clock: 1 replays in real time, 1000 a thousand times faster; 0 (or any
// non-positive value) replays as fast as the server can ingest. The first
// error — a corrupt frame, an unknown job, a protocol violation — aborts
// the replay.
func Replay(sv Backend, r io.Reader, speedup float64) (ReplayStats, error) {
	return ReplayFrom(sv, r, speedup, 0)
}

// ReplayFrom is Replay resuming mid-dump: the first skip elements (specs
// and events combined, in dump order) are decoded but not applied. A server
// recovered from snapshot+WAL reports how many mutations it already holds
// (RecoveryStats.NextLSN-1); passing that as skip continues the same dump
// without double-applying a single element (each accepted dump element is
// exactly one WAL record).
func ReplayFrom(sv Backend, r io.Reader, speedup float64, skip int) (ReplayStats, error) {
	var st ReplayStats
	wr := wire.NewReader(r)
	start := time.Now()
	pc := pacer{speedup: speedup}
	// Pooled decode, as in the HTTP ingest loop: one wire.Event reused across
	// the dump, feature slices drawn from (and, when not retained,
	// returned to) the ingest observation pool.
	var ev wire.Event
	for {
		sp, err := wr.NextInto(&ev)
		if err == io.EOF {
			st.Wall = pc.wall(start)
			st.MaxLag = pc.maxLag
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
		pc.sleep(pc.schedule(ev.Time))
		err = sv.Ingest(ev)
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

// ReplayHTTP streams a recorded dump to a serving front end (NewHandler)
// as a sequence of POST /ingest requests of at most batch frames each,
// paced like Replay. baseURL addresses the front end (e.g.
// "http://127.0.0.1:8080"); client nil uses http.DefaultClient. This is the
// wire path end to end: dump bytes are re-framed into request bodies, the
// front end decodes them, and the server's state is fed exactly as an
// external monitoring pipeline would feed it.
func ReplayHTTP(client *http.Client, baseURL string, r io.Reader, speedup float64, batch int) (ReplayStats, error) {
	return ReplayHTTPFrom(client, baseURL, r, speedup, batch, 0)
}

// ReplayHTTPFrom is ReplayHTTP resuming mid-dump, skipping the first skip
// elements exactly like ReplayFrom — the crash-resume path when the far
// server recovered from a WAL.
func ReplayHTTPFrom(client *http.Client, baseURL string, r io.Reader, speedup float64, batch, skip int) (ReplayStats, error) {
	if client == nil {
		client = http.DefaultClient
	}
	if batch < 1 {
		batch = 1024
	}
	var st ReplayStats
	wr := wire.NewReader(r)
	body := wire.AppendHeader(nil)
	// Queued-but-unacknowledged elements are tracked separately and folded
	// into st only when their flush succeeds, so the returned stats never
	// over-report what the front end actually applied.
	var qSpecs, qEvents int
	flush := func() error {
		if qSpecs+qEvents == 0 {
			return nil
		}
		resp, err := client.Post(baseURL+"/ingest", wireContentType, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("serve: replay over http: %w", err)
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("serve: replay over http: ingest returned %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		st.Specs += qSpecs
		st.Events += qEvents
		qSpecs, qEvents = 0, 0
		body = wire.AppendHeader(body[:0])
		return nil
	}
	start := time.Now()
	pc := pacer{speedup: speedup}
	// Pooled decode: events are re-encoded into the request body (copied),
	// never retained, so every observation goes straight back to the pool.
	var ev wire.Event
	for {
		sp, err := wr.NextInto(&ev)
		if err == io.EOF {
			if err := flush(); err != nil {
				return st, err
			}
			st.Wall = pc.wall(start)
			st.MaxLag = pc.maxLag
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
			if body, err = wire.EncodeSpec(body, *sp); err != nil {
				return st, err
			}
			qSpecs++
		} else {
			if ahead := pc.schedule(ev.Time); ahead > time.Millisecond {
				// Ship what is queued before sleeping so the server's
				// view stays current while the replay idles.
				if err := flush(); err != nil {
					return st, err
				}
				pc.sleep(ahead)
			}
			body, err = wire.EncodeEvent(body, ev)
			serve.RecycleAfterIngest(&ev, errSkipped)
			if err != nil {
				return st, err
			}
			qEvents++
		}
		if qSpecs+qEvents >= batch {
			if err := flush(); err != nil {
				return st, err
			}
		}
	}
}
