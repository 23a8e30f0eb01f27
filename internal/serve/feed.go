package serve

// feed.go is the one loop that applies a wire stream: POST /ingest bodies,
// nurdserve -replay dumps, RestoreServer and a recovery's base go through
// Feed, and a recovery's log tail through its per-frame step, so a stream
// lands the same way whatever carried it.

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/wire"
)

// Fed counts what one Feed applied: spec, event and drop frames, and the
// heartbeats shed under overload instead (ErrShed, or refused by admit).
type Fed struct {
	Specs, Events, Drops, Shed int
}

// body is what one stream's consecutive frames share: the wire.Reader they
// come from, when there is one, so an event's log record is the frame it
// arrived as (wire.Reader.FrameOf), not encoded and checksummed again; the
// job the previous event went to and its shard, so a run of one job's events
// hashes and looks the job up once — the job lock re-validates it, and a job
// dropped since is defunct and sends the event back to the registry; and the
// Event each event frame decodes into, with the feature buffer it reuses
// (the task's own row takes a copy). A body without a reader has its events
// encoded. A body is one goroutine's, for one Server.
type body struct {
	rd   *wire.Reader
	job  *jobState
	sh   *shard
	ev   wire.Event
	feat []float64
}

// shardOf returns jobID's shard: the previous event's when jobID is that
// event's job, the registry's otherwise.
func (b *body) shardOf(r *registry, jobID uint64) *shard {
	if b.job != nil && b.job.spec.JobID == jobID {
		return b.sh
	}
	return r.shardFor(jobID)
}

// frameOf returns e's frame as received, or nil when e is to be encoded.
func (b *body) frameOf(e *wire.Event) []byte {
	if b == nil || b.rd == nil {
		return nil
	}
	return b.rd.FrameOf(e)
}

// Feed applies every spec, event and drop frame of rd in order, as StartJob,
// Ingest and DropJob would, and stops at the first error: a frame that does
// not read or decode, or one the server refuses. A heartbeat shed under
// overload is counted, not an error — shedding is policy, and failing the
// stream would turn one coalesced observation into the loss of every frame
// after it.
//
// admit, when non-nil, is charged once per decoded frame before the frame
// applies; sheddable says the frame is a heartbeat, the only kind admit may
// refuse, and a refused heartbeat is shed. The HTTP front charges its
// per-client rate limit here; in-process callers pass nil.
//
// With a write-ahead log, every frame is staged as it applies and Feed
// commits once before it returns, when it applied anything: what Fed counts
// is in the log, whether or not the stream failed, unless the commit itself
// failed, and then its error is the one returned.
func (sv *Server) Feed(rd *wire.Reader, admit func(sheddable bool) bool) (Fed, error) {
	if admit == nil {
		admit = admitAll
	}
	var fed Fed
	b := body{rd: rd}
	var err error
	for err == nil {
		var kind wire.FrameKind
		var payload []byte
		if kind, payload, err = rd.NextFrame(); err == nil {
			err = sv.step(kind, payload, &b, admit, &fed)
		}
	}
	if sv.wal != nil && fed.Specs+fed.Events+fed.Drops > 0 {
		if cerr := sv.wal.CommitAll(); cerr != nil {
			return fed, cerr
		}
	}
	if err == io.EOF {
		err = nil
	}
	return fed, err
}

// step applies one spec, event or drop frame exactly as the live server
// applied the mutation it records, staging its log record without waiting
// for it, and counts it in fed. Feed's loop and recovery's log tail both go
// through here. A frame that decodes but does not apply fails; so does any
// other kind of frame, which no server ever accepted.
func (sv *Server) step(kind wire.FrameKind, payload []byte, b *body, admit func(bool) bool, fed *Fed) error {
	switch kind {
	case wire.FrameSpec:
		sp, err := wire.DecodeSpecPayload(payload)
		if err != nil {
			return err
		}
		admit(false)
		if _, err := sv.stageJob(sp, nil); err != nil {
			return err
		}
		fed.Specs++
	case wire.FrameEvent:
		ev := &b.ev
		if err := wire.DecodeEventInto(payload, ev, b.feat); err != nil {
			return err
		}
		if cap(ev.Features) > cap(b.feat) {
			b.feat = ev.Features
		}
		if !admit(ev.Kind == wire.EventHeartbeat) {
			fed.Shed++
			return nil
		}
		_, err := b.shardOf(sv.reg, ev.JobID).ingest(ev, b)
		switch {
		case errors.Is(err, ErrShed):
			fed.Shed++
		case err != nil:
			return err
		default:
			fed.Events++
		}
	case wire.FrameDrop:
		jobID, err := wire.DecodeDropPayload(payload)
		if err != nil {
			return err
		}
		admit(false)
		if _, err := sv.dropJob(jobID); err != nil {
			return err
		}
		fed.Drops++
	default:
		return fmt.Errorf("%w: frame kind %d where a spec, event or drop belongs", wire.ErrCorrupt, kind)
	}
	return nil
}

// admitAll is the admission of callers that charge nothing.
func admitAll(bool) bool { return true }
