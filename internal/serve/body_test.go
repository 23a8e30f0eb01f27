package serve

// body_test.go covers what a body carries from one event to the next: the
// frame its reader decoded, which is logged as received, and the job the
// previous event went to. The cached job must never outlive its
// registration — a drop between two events of one job sends the next one
// back to the registry, which knows the job's new registration or answers
// ErrUnknownJob.

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

// stageEvent stages e through b as a run of one, as Server.Ingest does,
// leaving the commit to the caller.
func stageEvent(sv *Server, e wire.Event, b *body) error {
	err := sv.reg.shardFor(e.JobID).ingest(&e, b)
	if eerr := b.end(nil); err == nil {
		err = eerr
	}
	return err
}

func bodySpec(id uint64) wire.JobSpec {
	return wire.JobSpec{JobID: id, Schema: []string{"cpu"}, NumTasks: 2, TauStra: 10,
		Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: id}
}

// TestBodyRunCacheFollowsDropAndRestart: the events of job J staged through
// one body straddle a DropJob(J). With J registered again in between, the
// later events apply to the new registration; without, they are refused
// as an unknown job, exactly as a fresh lookup refuses them.
func TestBodyRunCacheFollowsDropAndRestart(t *testing.T) {
	const id = 5
	for _, restart := range []bool{true, false} {
		sv := NewServer(cheapCfg(2))
		if err := sv.StartJob(bodySpec(id), nil); err != nil {
			t.Fatal(err)
		}
		var b body
		for _, e := range []wire.Event{
			{Kind: wire.EventTaskStart, JobID: id, TaskID: 0, Time: 1},
			{Kind: wire.EventJobFinish, JobID: id, Time: 2},
		} {
			if err := stageEvent(sv, e, &b); err != nil {
				t.Fatal(err)
			}
		}
		old := b.job
		if old == nil || old.spec.JobID != id {
			t.Fatalf("the body did not keep job %d after staging its events", id)
		}
		if err := sv.DropJob(id); err != nil {
			t.Fatal(err)
		}
		if restart {
			if err := sv.StartJob(bodySpec(id), nil); err != nil {
				t.Fatal(err)
			}
		}
		err := stageEvent(sv, wire.Event{Kind: wire.EventTaskStart, JobID: id, TaskID: 1, Time: 3}, &b)
		if !restart {
			if !errors.Is(err, ErrUnknownJob) {
				t.Fatalf("event after DropJob: %v, want ErrUnknownJob", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("event after DropJob and StartJob: %v", err)
		}
		rep, err := sv.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Done || rep.Started != 1 {
			t.Fatalf("new registration: done %v, %d started; the event went to the dropped job", rep.Done, rep.Started)
		}
		if b.job == old {
			t.Fatal("the body still holds the dropped registration")
		}
	}
}

// TestBodyLogsTheFrameAsReceived: an event staged through a body with a
// reader is logged as the frame the reader decoded it from, not encoded
// again — which shows only when the event was changed after decoding,
// something the contract forbids — and an event whose length or job is
// not its frame's is encoded.
func TestBodyLogsTheFrameAsReceived(t *testing.T) {
	fs := waltest.NewMemFS()
	sv, log, _, err := Recover("wal", cheapCfg(1), wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := sv.StartJob(bodySpec(4), nil); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := wire.WriteDump(&dump, nil, []wire.Event{
		{Kind: wire.EventTaskStart, JobID: 4, TaskID: 0, Time: 1},
		{Kind: wire.EventHeartbeat, JobID: 4, TaskID: 0, Time: 2, Features: []float64{7}},
		{Kind: wire.EventHeartbeat, JobID: 4, TaskID: 0, Time: 5, Features: []float64{9}},
	}); err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(&dump)
	b := &body{rd: rd}
	var logged, absent [][]byte
	for i, tc := range []struct {
		change func(*wire.Event)
		frame  bool // the frame is logged, not the changed event's encoding
	}{
		{func(*wire.Event) {}, true},
		{func(e *wire.Event) { e.Time = 3 }, true}, // same kind byte, length and job
		{func(e *wire.Event) { *e = wire.Event{Kind: wire.EventTaskFinish, JobID: 4, Time: 6, Latency: 5} }, false},
	} {
		var ev wire.Event
		if _, err := rd.NextInto(&ev); err != nil {
			t.Fatal(err)
		}
		frame := bytes.Clone(rd.FrameOf(&ev))
		tc.change(&ev)
		enc, err := wire.EncodeEvent(nil, ev)
		if err != nil {
			t.Fatal(err)
		}
		if tc.frame {
			logged = append(logged, frame)
			if !bytes.Equal(enc, frame) {
				absent = append(absent, enc)
			}
		} else {
			logged, absent = append(logged, enc), append(absent, frame)
		}
		if err := stageEvent(sv, ev, b); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	if err := sv.wal.CommitAll(); err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for name, data := range fs.Files {
		if strings.Contains(name, wal.SegPrefix) {
			seg = append(seg, data...)
		}
	}
	for i, f := range logged {
		if !bytes.Contains(seg, f) {
			t.Errorf("record %d is not in the log", i)
		}
	}
	for i, f := range absent {
		if bytes.Contains(seg, f) {
			t.Errorf("bytes %d that must not be logged are in the log", i)
		}
	}
}

// TestBodyRunCacheConcurrentDropper races one feeder staging job J's
// events through one body against a dropper that drops and re-registers J
// whenever it has finished. Every event the feeder saw accepted must have
// gone to a live registration, in log order: the live counters equal the
// accepted count, and recovery from the log — which refuses an event for
// a dropped job — reproduces them. Run under -race.
func TestBodyRunCacheConcurrentDropper(t *testing.T) {
	const id = 9
	fs := waltest.NewMemFS()
	opts := wal.Options{FS: fs}
	sv, log, _, err := Recover("wal", cheapCfg(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.StartJob(bodySpec(id), nil); err != nil {
		t.Fatal(err)
	}
	// The feeder runs until enough of its events were accepted; a body
	// stuck on a dropped registration has all of them refused after the
	// first drop, and runs out of rounds instead.
	want := uint64(200)
	if testing.Short() {
		want = 40
	}
	const maxRounds = 1 << 20
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var drops int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if sv.DropJob(id) != nil {
				continue // still streaming
			}
			drops++
			if err := sv.StartJob(bodySpec(id), nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var b body
	var accepted uint64
	rounds := 0
	for ; accepted < want && rounds < maxRounds; rounds++ {
		tm := float64(rounds)
		for _, e := range []wire.Event{
			{Kind: wire.EventTaskStart, JobID: id, TaskID: 0, Time: tm},
			{Kind: wire.EventJobFinish, JobID: id, Time: tm},
		} {
			err := stageEvent(sv, e, &b)
			switch {
			case err == nil:
				accepted++
			case errors.Is(err, ErrUnknownJob),
				strings.Contains(err.Error(), "after job-finish"),
				strings.Contains(err.Error(), "duplicate start"):
				// Between the drop and the restart, or before the drop.
			default:
				t.Fatalf("round %d: %v", rounds, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := sv.wal.CommitAll(); err != nil {
		t.Fatal(err)
	}
	if accepted < want {
		t.Fatalf("%d rounds, %d drops: only %d events accepted, the feeder never reached a new registration", rounds, drops, accepted)
	}
	if drops == 0 {
		t.Fatal("the dropper never dropped the job: nothing raced")
	}
	live := sv.Stats()
	if live.Events != accepted {
		t.Fatalf("live server counts %d events, the feeder saw %d accepted", live.Events, accepted)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	revived, log2, _, err := Recover("wal", cheapCfg(2), opts)
	if err != nil {
		t.Fatalf("recovering the raced log: %v", err)
	}
	defer log2.Close()
	if got := revived.Stats(); got.Events != live.Events || got.Jobs != live.Jobs {
		t.Fatalf("recovered %d events over %d jobs, live %d over %d", got.Events, got.Jobs, live.Events, live.Jobs)
	}
	t.Logf("%d rounds, %d drops, %d events accepted", rounds, drops, accepted)
}
