package serve

// feed.go is the one loop that applies a wire stream: POST /ingest bodies,
// nurdserve -replay dumps, RestoreServer and a recovery's base go through
// Feed, and a recovery's log tail through its per-frame step, so a stream
// lands the same way whatever carried it.

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

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
// dropped since is defunct and sends the event back to the registry; the
// Event each event frame decodes into, with the feature buffer it reuses
// (the task's own row takes a copy); and what the stream applied so far. A
// body is one goroutine's, for one Server.
//
// Its unit of locking is the run: consecutive event frames of one job that
// are already whole in the reader's buffer. The run's first event takes the
// job lock, every later one applies under it, and end releases it, after
// staging the run's records — its frames, which alias the reader's buffer
// and stay valid because no frame of the run needed a Read — under one hold
// of the log's lock and folding the job's counter deltas into its shard
// once. A run ends at another job's frame, a spec or drop frame, a frame not
// yet whole in the buffer, a frame the job rejects, and before an event
// waits for an admission slot, so no lock is held across a Read or a wait.
// A body without a reader — Server.Ingest, a recovery's log tail — makes
// runs of one: its caller ends the run after every frame.
type body struct {
	rd   *wire.Reader
	job  *jobState
	sh   *shard
	ev   wire.Event
	feat []float64
	fed  Fed
	lsn  uint64 // the last record staged

	// The open run: job's lock is held while open is set. frames are its
	// accepted events' frames, events and dropped its accepted events and
	// the benign drops among them, and before the job's counters when it
	// opened.
	open            bool
	frames          [][]byte
	events, dropped uint64
	before          jobCounts
}

// jobCounts is the part of a job's state its shard's counters follow.
type jobCounts struct {
	terminated, refits int
	refitDur           time.Duration
	reclassified       uint64
	done               bool
}

func countsOf(j *jobState) jobCounts {
	return jobCounts{j.terminated, j.refits, j.refitDur, j.reclassified, j.done}
}

// runFrames keeps the frame lists of finished bodies for the next ones.
var runFrames = sync.Pool{New: func() any { return new([][]byte) }}

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
	if b.rd == nil {
		return nil
	}
	return b.rd.FrameOf(e)
}

// end closes the open run, if any. It stages the run's frames and then one,
// the event that arrived without its frame (encoded here, under the log's
// lock), while the job lock is still held, so the log's per-job order is
// the apply order; then it releases the job lock and folds the run's counter
// deltas into the shard. A failed stage is the run's error: its events are
// applied in memory but will never be durable, so neither they nor any later
// frame may be acknowledged, and Fed counts only the records staged.
func (b *body) end(one *wire.Event) error {
	if !b.open {
		return nil
	}
	b.open = false
	j, s := b.job, b.sh
	staged := int(b.events)
	var err error
	if s.wal != nil {
		var lsn uint64
		staged = 0
		if len(b.frames) > 0 {
			lsn, staged, err = s.wal.StageFrames(b.frames)
			b.frames = b.frames[:0]
		}
		if err == nil && one != nil {
			var l uint64
			if l, err = s.wal.StageEvent(one); err == nil {
				lsn, staged = l, staged+1
			}
		}
		if staged > 0 {
			b.lsn = lsn
		}
	}
	was, now, maxDur := b.before, countsOf(j), j.refitMax
	j.mu.Unlock()

	b.fed.Events += staged
	if b.events > 0 {
		s.events.Add(b.events)
	}
	// Applying a refit inside handle can reclassify earlier-accepted
	// finishes of freshly terminated tasks as drops, on top of the events'
	// own benign drops.
	if dropped := b.dropped + now.reclassified - was.reclassified; dropped > 0 {
		s.dropped.Add(dropped)
	}
	if d := now.terminated - was.terminated; d > 0 {
		s.terminations.Add(uint64(d))
	}
	if d := now.refits - was.refits; d > 0 {
		s.refits.Add(uint64(d))
		s.refitDur.Add(int64(now.refitDur - was.refitDur))
		atomicMax(&s.refitMax, int64(maxDur))
	}
	if !was.done && now.done {
		// One increment per closure, whichever path closed it (job-finish
		// or predictor failure).
		s.finished.Add(1)
	}
	b.events, b.dropped = 0, 0
	return err
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
// refuse, and a refused heartbeat is shed. admit may run while a run's job
// lock is held, so it must not block. The HTTP front charges its per-client
// rate limit here; in-process callers pass nil.
//
// With a write-ahead log, every run of frames is staged before its job lock
// is released, and Feed commits once before it returns, when it applied
// anything: what Fed counts is in the log, whether or not the stream failed,
// unless the commit itself failed, and then its error is the one returned.
func (sv *Server) Feed(rd *wire.Reader, admit func(sheddable bool) bool) (Fed, error) {
	if admit == nil {
		admit = admitAll
	}
	frames := runFrames.Get().(*[][]byte)
	b := body{rd: rd, frames: *frames}
	var err error
	for err == nil {
		if b.open && !rd.FrameBuffered() {
			if err = b.end(nil); err != nil {
				break
			}
		}
		var kind wire.FrameKind
		var payload []byte
		if kind, payload, err = rd.NextFrame(); err == nil {
			err = sv.step(kind, payload, &b, admit)
		}
	}
	// A run's stage error outranks the frame that ended it: the run's events
	// came first.
	if eerr := b.end(nil); eerr != nil {
		err = eerr
	}
	clear(b.frames[:cap(b.frames)])
	*frames = b.frames
	runFrames.Put(frames)
	fed := b.fed
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
// applied the mutation it records and counts it in b.fed. An event applies
// inside b's run, opening one when none is open on its job; a spec or drop
// ends the run first, since either takes its shard's lock. Feed's loop and
// recovery's log tail both go through here. A frame that decodes but does
// not apply fails; so does any other kind of frame, which no server ever
// accepted.
func (sv *Server) step(kind wire.FrameKind, payload []byte, b *body, admit func(bool) bool) error {
	switch kind {
	case wire.FrameSpec:
		sp, err := wire.DecodeSpecPayload(payload)
		if err != nil {
			return err
		}
		if err := b.end(nil); err != nil {
			return err
		}
		admit(false)
		if _, err := sv.stageJob(sp, nil); err != nil {
			return err
		}
		b.fed.Specs++
	case wire.FrameEvent:
		ev := &b.ev
		if err := wire.DecodeEventInto(payload, ev, b.feat); err != nil {
			return err
		}
		if cap(ev.Features) > cap(b.feat) {
			b.feat = ev.Features
		}
		if !admit(ev.Kind == wire.EventHeartbeat) {
			b.fed.Shed++
			return nil
		}
		err := b.shardOf(sv.reg, ev.JobID).ingest(ev, b)
		if err != nil && errors.Is(err, ErrShed) {
			b.fed.Shed++
			return nil
		}
		return err
	case wire.FrameDrop:
		jobID, err := wire.DecodeDropPayload(payload)
		if err != nil {
			return err
		}
		if err := b.end(nil); err != nil {
			return err
		}
		admit(false)
		if _, err := sv.dropJob(jobID); err != nil {
			return err
		}
		b.fed.Drops++
	default:
		return fmt.Errorf("%w: frame kind %d where a spec, event or drop belongs", wire.ErrCorrupt, kind)
	}
	return nil
}

// admitAll is the admission of callers that charge nothing.
func admitAll(bool) bool { return true }
