package serve

// admission_test.go pins the ingest queue's admission counter (overload.go):
// every exit from shard.ingest gives its slot back, a freed slot goes to the
// event already waiting for it rather than to a heartbeat that arrives
// meanwhile, and under many concurrent feeders the counter never admits
// past its bound, loses no event and logs exactly the accepted stream.

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

// waiting reports how many callers hold a ticket for a slot and have not
// been handed one.
func (a *admission) waiting() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(a.ticket) - int64(a.served)
}

// waitUntil polls cond until it holds, failing the test after 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestAdmissionSlotReleasedOnEveryExit: whichever way an ingest leaves
// shard.ingest — accepted, shed, refused for an unknown job, refused for a
// width the wire cannot carry, rejected by the job, or failed staging into
// a wedged log — the queue depth is back where it was. The bound is 1, so a
// leaked slot would also shed every later heartbeat.
func TestAdmissionSlotReleasedOnEveryExit(t *testing.T) {
	fs := waltest.NewMemFS()
	cfg := cheapCfg(1)
	cfg.IngestQueue = 1
	sv, w, _, err := Recover("wal", cfg, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := sv.StartJob(pipelineSpec(1), nil); err != nil {
		t.Fatal(err)
	}
	s := sv.reg.shardFor(1)
	depth := func(step string, want int) {
		t.Helper()
		if d := sv.Stats().Overload.IngestQueueDepth; d != want || s.queue.n.Load() != int64(want) {
			t.Fatalf("after %s: queue depth %d (counter %d), want %d", step, d, s.queue.n.Load(), want)
		}
	}
	ingest := func(step string, e wire.Event, want func(error) bool) {
		t.Helper()
		if err := sv.Ingest(e); !want(err) {
			t.Fatalf("%s: unexpected result %v", step, err)
		}
	}
	ok := func(err error) bool { return err == nil }
	failed := func(err error) bool { return err != nil && !errors.Is(err, ErrShed) }

	ingest("accepted event", wire.Event{Kind: wire.EventTaskStart, JobID: 1, TaskID: 0}, ok)
	depth("an accepted event", 0)

	occupy(s)
	ingest("shed heartbeat", wire.Event{Kind: wire.EventHeartbeat, JobID: 1, TaskID: 0, Time: 1,
		Features: []float64{1, 1}}, func(err error) bool { return errors.Is(err, ErrShed) })
	depth("a shed heartbeat, one slot held", 1)
	free(s)
	depth("a shed heartbeat", 0)

	ingest("unknown job", wire.Event{Kind: wire.EventTaskStart, JobID: 99, TaskID: 0},
		func(err error) bool { return errors.Is(err, ErrUnknownJob) })
	depth("an unknown job", 0)

	ingest("too wide", wire.Event{Kind: wire.EventHeartbeat, JobID: 1, TaskID: 0, Time: 1,
		Features: make([]float64, wire.MaxWireFeatures+1)}, failed)
	depth("an event wider than the wire cap", 0)

	ingest("handle rejection", wire.Event{Kind: wire.EventTaskFinish, JobID: 1, TaskID: 5, Time: 1, Latency: 1}, failed)
	depth("a handle rejection", 0)

	// Every further write fails: the next commit wedges the log, and the
	// stage after it fails inside the admitted section.
	fs.SetBudget(fs.TotalWritten())
	ingest("commit into a failing disk", wire.Event{Kind: wire.EventTaskStart, JobID: 1, TaskID: 1}, failed)
	depth("a failed commit", 0)
	ingest("stage into a wedged log", wire.Event{Kind: wire.EventTaskStart, JobID: 1, TaskID: 2},
		func(err error) bool { return errors.Is(err, wal.ErrFailed) })
	depth("a stage into a wedged log", 0)
	if w.Err() == nil {
		t.Fatal("the log never wedged")
	}
}

// TestAdmissionHandsOffToWaiter: with the only slot held and a job-finish
// waiting for it, the release hands the slot to the job-finish while a
// feeder hammers the shard with heartbeats. No heartbeat may be admitted
// ahead of the waiting job-finish: each one sent before it completes is
// shed, and each one after is refused by the finished job, so none is
// accepted at all. A release that freed the slot for anyone to take would
// let the feeder's CAS win some of the rounds.
func TestAdmissionHandsOffToWaiter(t *testing.T) {
	cfg := cheapCfg(1)
	cfg.IngestQueue = 1
	sv := NewServer(cfg)
	s := sv.reg.shardFor(1)
	const rounds = 40
	for r := 1; r <= rounds; r++ {
		id := uint64(r)
		if err := sv.StartJob(pipelineSpec(id), nil); err != nil {
			t.Fatal(err)
		}
		if err := sv.Ingest(wire.Event{Kind: wire.EventTaskStart, JobID: id, TaskID: 0}); err != nil {
			t.Fatal(err)
		}
		occupy(s)
		finished := make(chan error, 1)
		go func() { finished <- sv.Ingest(wire.Event{Kind: wire.EventJobFinish, JobID: id, Time: 100}) }()
		waitUntil(t, "the job-finish waits for a slot", func() bool { return s.queue.waiting() == 1 })

		var admitted, shed atomic.Int64
		stop, fed := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(fed)
			hb := wire.Event{Kind: wire.EventHeartbeat, JobID: id, TaskID: 0, Time: 1, Features: []float64{1, 1}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch err := sv.Ingest(hb); {
				case err == nil:
					admitted.Add(1)
				case errors.Is(err, ErrShed):
					shed.Add(1)
				}
			}
		}()
		waitUntil(t, "the feeder meets the full queue", func() bool { return shed.Load() > 0 })
		free(s)
		if err := <-finished; err != nil {
			t.Fatalf("round %d: job-finish: %v", r, err)
		}
		close(stop)
		<-fed
		if n := admitted.Load(); n != 0 {
			t.Fatalf("round %d: %d heartbeats admitted ahead of the waiting job-finish", r, n)
		}
	}
	st := sv.Stats()
	if st.Events != 2*rounds || st.Overload.IngestWaits != rounds || st.Overload.IngestQueueDepth != 0 {
		t.Fatalf("events=%d waits=%d depth=%d, want %d/%d/0",
			st.Events, st.Overload.IngestWaits, st.Overload.IngestQueueDepth, 2*rounds, rounds)
	}
}

// TestAdmissionWaitersInTicketOrder: callers that wait for a full queue are
// admitted in the order they began waiting, one per release.
func TestAdmissionWaitersInTicketOrder(t *testing.T) {
	a := newAdmission(1)
	a.acquire()
	const waiters = 4
	admitted := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			a.acquire()
			admitted <- i
		}(i)
		waitUntil(t, "the next caller waits", func() bool { return a.waiting() == int64(i+1) })
	}
	for want := 0; want < waiters; want++ {
		a.release()
		if got := <-admitted; got != want {
			t.Fatalf("release %d admitted waiter %d, want %d", want+1, got, want)
		}
		if len(admitted) != 0 {
			t.Fatalf("release %d admitted more than one waiter", want+1)
		}
	}
	a.release()
	if a.n.Load() != 0 || a.waiting() != 0 {
		t.Fatalf("counter %d, %d waiting after the last release", a.n.Load(), a.waiting())
	}
}

// mixedStream is one pipelineSpec job's traffic: every task starts, the
// unfinished tasks heartbeat every 2 time units, task i finishes at 10i+5,
// and the job finishes at the horizon — crossing every checkpoint boundary.
func mixedStream(id uint64) []wire.Event {
	spec := pipelineSpec(id)
	var evs []wire.Event
	for i := 0; i < spec.NumTasks; i++ {
		evs = append(evs, wire.Event{Kind: wire.EventTaskStart, JobID: id, TaskID: i})
	}
	for tm := 1.0; tm < spec.Horizon; tm += 2 {
		for i := 0; i < spec.NumTasks; i++ {
			switch fin := float64(10*i + 5); {
			case tm < fin:
				evs = append(evs, wire.Event{Kind: wire.EventHeartbeat, JobID: id, TaskID: i, Time: tm,
					Features: []float64{tm, float64(i)}})
			case tm < fin+2:
				evs = append(evs, wire.Event{Kind: wire.EventTaskFinish, JobID: id, TaskID: i, Time: fin, Latency: fin})
			}
		}
	}
	return append(evs, wire.Event{Kind: wire.EventJobFinish, JobID: id, Time: spec.Horizon})
}

// TestAdmissionStress runs 8 concurrent feeders at queue bounds 1, 2 and 3.
// A bare admission counter never lets more than its bound inside at once;
// through the server, the sampled depth stays within the bound and ends at
// 0, Events equals what the feeders saw accepted, and recovering the log
// reproduces the live verdicts. Meant for -race.
func TestAdmissionStress(t *testing.T) {
	const feeders = 8
	for _, bound := range []int{1, 2, 3} {
		a := newAdmission(bound)
		var inside, peak atomic.Int64
		var wg sync.WaitGroup
		for f := 0; f < feeders; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					if !a.tryAcquire() {
						if (f+i)%3 == 0 {
							continue // a shed heartbeat
						}
						a.acquire()
					}
					atomicMax(&peak, inside.Add(1))
					inside.Add(-1)
					a.release()
				}
			}(f)
		}
		wg.Wait()
		if p := peak.Load(); p > int64(bound) {
			t.Fatalf("bound %d: %d callers inside at once", bound, p)
		}
		if a.n.Load() != 0 || a.waiting() != 0 {
			t.Fatalf("bound %d: counter %d, %d waiting after every caller left", bound, a.n.Load(), a.waiting())
		}

		fs := waltest.NewMemFS()
		cfg := cheapCfg(1)
		cfg.IngestQueue = bound
		sv, w, _, err := Recover("wal", cfg, wal.Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		var accepted atomic.Uint64
		errs := make(chan error, feeders)
		stop, sampled := make(chan struct{}), make(chan int)
		go func() {
			worst := 0
			for {
				d := sv.Stats().Overload.IngestQueueDepth
				if d < 0 || d > bound {
					worst = d
				}
				select {
				case <-stop:
					sampled <- worst
					return
				default:
				}
			}
		}()
		for f := 1; f <= feeders; f++ {
			go func(id uint64) {
				if err := sv.StartJob(pipelineSpec(id), nil); err != nil {
					errs <- err
					return
				}
				for _, e := range mixedStream(id) {
					switch err := sv.Ingest(e); {
					case err == nil:
						accepted.Add(1)
					case errors.Is(err, ErrShed) && e.Kind == wire.EventHeartbeat:
					default:
						errs <- err
						return
					}
				}
				errs <- nil
			}(uint64(f))
		}
		for f := 0; f < feeders; f++ {
			if err := <-errs; err != nil {
				t.Fatalf("bound %d: %v", bound, err)
			}
		}
		close(stop)
		if d := <-sampled; d != 0 {
			t.Fatalf("bound %d: sampled queue depth %d", bound, d)
		}
		st := sv.Stats()
		if st.Overload.IngestQueueDepth != 0 || st.Events != accepted.Load() {
			t.Fatalf("bound %d: depth %d, events %d, feeders saw %d accepted",
				bound, st.Overload.IngestQueueDepth, st.Events, accepted.Load())
		}
		t.Logf("bound %d: %d events accepted, %d heartbeats shed, %d waits",
			bound, st.Events, st.Overload.ShedHeartbeats, st.Overload.IngestWaits)

		// Crash (the live log is not closed first) and recover.
		revived, w2, _, err := Recover("wal", cfg, wal.Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		if got := revived.Stats().Events; got != accepted.Load() {
			t.Fatalf("bound %d: recovered %d events, live %d", bound, got, accepted.Load())
		}
		probe := allTaskIDs(pipelineSpec(1).NumTasks)
		for id := uint64(1); id <= feeders; id++ {
			want, err := sv.Query(id, probe)
			if err != nil {
				t.Fatal(err)
			}
			got, err := revived.Query(id, probe)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("bound %d job %d: recovered verdicts differ:\n want %+v\n  got %+v", bound, id, want, got)
			}
		}
		w2.Close()
		w.Close()
	}
}

// TestRunsAndAdmissionDoNotDeadlock: a run holds its job lock across frames, so
// with an ingest queue of one slot two feeders of one job can each hold what
// the other needs — one the job lock, the other the slot — unless a run ends
// before its next event waits for a slot. Two feeders post interleaved
// bodies for job J while a third posts to job K on the same shard; all
// three must finish, every frame accepted or (a heartbeat) shed, with the
// log holding exactly the accepted events. Meant for -race.
func TestRunsAndAdmissionDoNotDeadlock(t *testing.T) {
	fs := waltest.NewMemFS()
	cfg := cheapCfg(1)
	cfg.IngestQueue = 1
	sv, w, _, err := Recover("wal", cfg, wal.Options{FS: fs, SyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const tasks = 120
	for _, id := range []uint64{1, 2} {
		sp := pipelineSpec(id)
		sp.NumTasks, sp.Horizon = 2*tasks, 1e6
		if err := sv.StartJob(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	// A feeder's stream starts, heartbeats and finishes its own tasks, in
	// bodies of 64 frames: J's two feeders take the even and the odd tasks,
	// K's takes all of K's.
	bodies := func(id uint64, first, stride int) (out [][]byte) {
		var evs []wire.Event
		for i := first; i < 2*tasks; i += stride {
			evs = append(evs, wire.Event{Kind: wire.EventTaskStart, JobID: id, TaskID: i, Time: float64(i)})
			for k := 1; k <= 3; k++ {
				evs = append(evs, wire.Event{Kind: wire.EventHeartbeat, JobID: id, TaskID: i, Time: float64(i + k),
					Features: []float64{float64(k), float64(i)}})
			}
		}
		for i := first; i < 2*tasks; i += stride {
			evs = append(evs, wire.Event{Kind: wire.EventTaskFinish, JobID: id, TaskID: i, Time: float64(2*tasks + i), Latency: 5})
		}
		for len(evs) > 0 {
			var buf bytes.Buffer
			n := min(64, len(evs))
			if err := wire.WriteDump(&buf, nil, evs[:n]); err != nil {
				t.Fatal(err)
			}
			out, evs = append(out, buf.Bytes()), evs[n:]
		}
		return out
	}
	type result struct {
		fed Fed
		err error
	}
	results := make(chan result, 3)
	for _, f := range []struct {
		id            uint64
		first, stride int
	}{{1, 0, 2}, {1, 1, 2}, {2, 0, 1}} {
		bs := bodies(f.id, f.first, f.stride)
		go func() {
			var r result
			for _, b := range bs {
				fed, err := sv.Feed(wire.NewReader(bytes.NewReader(b)), nil)
				r.fed.Events += fed.Events
				r.fed.Shed += fed.Shed
				if err != nil {
					r.err = err
					break
				}
			}
			results <- r
		}()
	}
	var events, shed int
	deadline := time.After(30 * time.Second)
	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatal(r.err)
			}
			events, shed = events+r.fed.Events, shed+r.fed.Shed
		case <-deadline:
			t.Fatal("feeders still running after 30s: a run and an admission wait deadlocked")
		}
	}
	want := 2 * 2 * tasks * 5 // J's and K's tasks, 5 frames each
	st := sv.Stats()
	if events+shed != want || st.Events != uint64(events) || st.Overload.ShedHeartbeats != uint64(shed) {
		t.Fatalf("%d events accepted and %d shed of %d frames; stats count %d and %d", events, shed, want, st.Events, st.Overload.ShedHeartbeats)
	}
	if st.Overload.IngestQueueDepth != 0 {
		t.Fatalf("queue depth %d", st.Overload.IngestQueueDepth)
	}
	for _, id := range []uint64{1, 2} {
		rep, err := sv.Report(id)
		if err != nil || rep.Started != 2*tasks {
			t.Fatalf("job %d: %d started (err %v), want %d", id, rep.Started, err, 2*tasks)
		}
	}
	if err := w.CommitAll(); err != nil {
		t.Fatal(err)
	}
	revived, w2, _, err := Recover("wal", cfg, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := revived.Stats().Events; got != uint64(events) {
		t.Fatalf("recovered %d events, %d were accepted", got, events)
	}
	t.Logf("%d events accepted, %d heartbeats shed, %d waits", events, shed, st.Overload.IngestWaits)
}
