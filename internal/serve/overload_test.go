package serve

// overload_test.go pins the overload-control contracts from overload.go:
// the shedding priority order (heartbeats shed, label-bearing events wait,
// finishes never shed), the no-WAL-trace property that keeps recovery
// equivalence intact under shedding, and the refit queue's one view per
// job. The HTTP-visible halves of the
// taxonomy — per-client rate limiting and the Retry-After hints — are
// pinned by the servehttp test suite.

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/simulator"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

// cheapCfg is a 1-predictor config for protocol tests where model quality
// is irrelevant (flagAll is defined in serve_test.go).
func cheapCfg(shards int) Config {
	return Config{Shards: shards, NewPredictor: func(wire.JobSpec) simulator.Predictor { return &flagAll{} }}
}

// occupy holds one of s's ingest-queue slots, waiting for it like a
// finish; free gives it back.
func occupy(s *shard) { s.queue.acquire() }
func free(s *shard)   { s.queue.release() }

// TestShedPriorityOrder: with the ingest queue full, a heartbeat is shed
// immediately (ErrShed, before any state is touched) while a finish — which
// carries a ground-truth label — waits for a slot instead.
func TestShedPriorityOrder(t *testing.T) {
	sv := NewServer(Config{Shards: 1, IngestQueue: 1})
	if err := sv.StartJob(pipelineSpec(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := sv.Ingest(wire.Event{Kind: wire.EventTaskStart, JobID: 1, TaskID: 0, Time: 0}); err != nil {
		t.Fatal(err)
	}
	s := sv.reg.shardFor(1)
	occupy(s) // occupy the only queue slot

	err := sv.Ingest(wire.Event{Kind: wire.EventHeartbeat, JobID: 1, TaskID: 0, Time: 1, Features: []float64{1, 1}})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("heartbeat at a full queue: got %v, want ErrShed", err)
	}

	// The finish must wait, not shed: it blocks until the slot frees.
	finished := make(chan error, 1)
	go func() {
		finished <- sv.Ingest(wire.Event{Kind: wire.EventTaskFinish, JobID: 1, TaskID: 0, Time: 2, Latency: 2})
	}()
	select {
	case err := <-finished:
		t.Fatalf("finish completed with the queue full (err=%v); it must wait", err)
	case <-time.After(50 * time.Millisecond):
	}
	free(s) // free the slot
	select {
	case err := <-finished:
		if err != nil {
			t.Fatalf("finish after the slot freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("finish never completed after the queue drained")
	}

	over := sv.Stats().Overload
	if over.ShedHeartbeats != 1 || over.IngestWaits != 1 {
		t.Fatalf("taxonomy: shed_hb=%d waits=%d, want 1/1", over.ShedHeartbeats, over.IngestWaits)
	}
	// The shed heartbeat left no trace in the event counters either.
	if st := sv.Stats(); st.Events != 2 {
		t.Fatalf("events=%d after start+finish with one shed heartbeat, want 2", st.Events)
	}
}

// TestShedLeavesNoWALTrace: a shed heartbeat is not applied, not counted,
// and not logged — so the WAL records exactly the accepted stream, and a
// crash recovery of a shedding server reproduces its state verbatim.
func TestShedLeavesNoWALTrace(t *testing.T) {
	fs := waltest.NewMemFS()
	cfg := cheapCfg(1)
	cfg.IngestQueue = 1
	sv, _, _, err := Recover("wal", cfg, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	spec := wire.JobSpec{JobID: 1, Schema: []string{"cpu"}, NumTasks: 4, TauStra: 10,
		Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: 1}
	if err := sv.StartJob(spec, nil); err != nil {
		t.Fatal(err)
	}
	if err := sv.Ingest(wire.Event{Kind: wire.EventTaskStart, JobID: 1, TaskID: 0, Time: 1}); err != nil {
		t.Fatal(err)
	}

	s := sv.reg.shardFor(1)
	occupy(s)
	for i := 0; i < 3; i++ {
		err := sv.Ingest(wire.Event{Kind: wire.EventHeartbeat, JobID: 1, TaskID: 0,
			Time: float64(2 + i), Features: []float64{1}})
		if !errors.Is(err, ErrShed) {
			t.Fatalf("heartbeat %d: got %v, want ErrShed", i, err)
		}
	}
	free(s)
	if err := sv.Ingest(wire.Event{Kind: wire.EventTaskFinish, JobID: 1, TaskID: 0, Time: 6, Latency: 5}); err != nil {
		t.Fatal(err)
	}
	probe := []int{0, 1, 2, 3}
	want, err := sv.Query(1, probe)
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := sv.Stats().Events

	// Crash (the WAL is deliberately not closed) and recover from the
	// directory alone: spec + start + finish = 3 mutations, no more.
	revived, wal2, rst, err := Recover("wal", cheapCfg(1), wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := int(rst.NextLSN) - 1; got != 3 {
		t.Fatalf("recovered %d mutations, want 3 (shed heartbeats must not be logged)", got)
	}
	got, err := revived.Query(1, probe)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered verdicts differ from the shedding server's:\n want %+v\n  got %+v", want, got)
	}
	if ev := revived.Stats().Events; ev != wantEvents {
		t.Fatalf("recovered events=%d, live server counted %d", ev, wantEvents)
	}
}

// gatedFlagger blocks inside Predict until its gate is closed, then flags
// every running task whose first feature is at least min.
type gatedFlagger struct {
	gate <-chan struct{}
	min  float64
}

func (p *gatedFlagger) Name() string { return "gated-flagger" }
func (p *gatedFlagger) Reset()       {}
func (p *gatedFlagger) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	<-p.gate
	out := make([]bool, len(cp.RunningIDs))
	for i, x := range cp.RunningX {
		out[i] = x[0] >= p.min
	}
	return out, nil
}

// TestRefitQueueHoldsOneViewPerJob: the refit queue has no count bound of
// its own. With both of a shard's workers stalled, 65 more jobs cross a
// boundary (more than the 64 views a shard once queued before fitting
// inline): every crossing returns, so no fit ran on the ingesting
// goroutine, and all 65 views wait in the queue. Once the workers run,
// each job's next boundary applies its verdicts exactly as on a server
// whose fits never stalled, and captures one new view per job.
func TestRefitQueueHoldsOneViewPerJob(t *testing.T) {
	const queued = 65
	const jobs = refitWorkers + queued
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	defer open()
	closed := make(chan struct{})
	close(closed)
	server := func(gate <-chan struct{}) *Server {
		sv := NewServer(Config{Shards: 1, NewPredictor: func(sp wire.JobSpec) simulator.Predictor {
			return &gatedFlagger{gate: gate, min: float64(3 + sp.JobID%5)}
		}})
		for id := uint64(1); id <= jobs; id++ {
			if err := sv.StartJob(pipelineSpec(id), nil); err != nil {
				t.Fatal(err)
			}
			pipelineWarmup(t, sv, id, 2)
		}
		return sv
	}
	cross := func(sv *Server, id uint64, tm float64) error {
		return sv.Ingest(wire.Event{Kind: wire.EventHeartbeat, JobID: id, TaskID: 2, Time: tm,
			Features: []float64{2, 1}})
	}
	stalled, ref := server(gate), server(closed)
	pool := stalled.reg.shardFor(1).pool

	// Jobs 1 and 2 cross first; each fit must be executing, not queued,
	// before the next job crosses.
	for id := uint64(1); id <= refitWorkers; id++ {
		if err := cross(stalled, id, 11); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if q, infl := pool.depths(); q == 0 && infl == int(id) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d's fit never reached a worker", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	crossed := make(chan error, 1)
	go func() {
		for id := uint64(refitWorkers + 1); id <= jobs; id++ {
			if err := cross(stalled, id, 11); err != nil {
				crossed <- err
				return
			}
		}
		crossed <- nil
	}()
	select {
	case err := <-crossed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a boundary crossing did not return with both workers stalled: a fit ran on the ingesting goroutine")
	}
	if st := stalled.Stats(); st.RefitQueue != queued || st.RefitInflight != refitWorkers || st.RefitLag != jobs {
		t.Fatalf("stalled workers: refit queue %d, inflight %d, lag %d; want %d/%d/%d",
			st.RefitQueue, st.RefitInflight, st.RefitLag, queued, refitWorkers, jobs)
	}

	open()
	for id := uint64(1); id <= jobs; id++ {
		if err := cross(ref, id, 11); err != nil {
			t.Fatal(err)
		}
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for id := uint64(1); id <= jobs; id++ {
		for _, sv := range []*Server{stalled, ref} {
			if err := cross(sv, id, 21); err != nil {
				t.Fatal(err)
			}
		}
		got, err := stalled.Query(id, all)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query(id, all)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d: verdicts after the stalled fit applied differ:\n got %+v\nwant %+v", id, got, want)
		}
		rep, err := stalled.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Generation != 1 || rep.Terminated == 0 {
			t.Fatalf("job %d: generation %d, %d terminated after its first fit applied; want 1 and some",
				id, rep.Generation, rep.Terminated)
		}
	}
	// Each second boundary applied one fit and captured one view: one
	// captured view per job, never two.
	if lag := stalled.Stats().RefitLag; lag != jobs {
		t.Fatalf("refit lag %d after every job's second boundary, want %d (one view per job)", lag, jobs)
	}
}

// TestNonPositiveBoundsMeanDefault: a bound below 1 — zero or negative —
// resolves to its default, in the resolved Config and in /stats. A
// negative queue bound once switched shedding off silently and reported a
// bound of 0.
func TestNonPositiveBoundsMeanDefault(t *testing.T) {
	for _, v := range []int{0, -1} {
		sv := NewServer(Config{Shards: 1, IngestQueue: v, MaxJobs: v, MaxTasks: v})
		cfg := sv.Config()
		if cfg.IngestQueue != DefaultIngestQueue || cfg.MaxJobs != DefaultMaxJobs || cfg.MaxTasks != DefaultMaxTasks {
			t.Errorf("bounds %d: resolved ingest=%d jobs=%d tasks=%d, want %d/%d/%d", v,
				cfg.IngestQueue, cfg.MaxJobs, cfg.MaxTasks, DefaultIngestQueue, DefaultMaxJobs, DefaultMaxTasks)
		}
		if got := sv.Stats().Overload.IngestQueueBound; got != DefaultIngestQueue {
			t.Errorf("bounds %d: stats report ingest bound %d, want %d", v, got, DefaultIngestQueue)
		}
	}
}

// TestStageBatchSkipsShedStopsAtError drives Feed, which stages a body as
// one batch, over a body of n frames on a logged server: the frame at index
// k is a heartbeat for a job whose shard queue is held full, so it is shed;
// the frame at index m > k, when armed, is an event for an unknown job.
// Every frame after k up to m must still apply, Feed must stop at m, and it
// must commit exactly once — one log write — whether or not the body
// failed. A commit that fails (a wedged filesystem) outranks the frame's
// error. A loop that breaks on ErrShed applies only 0..k-1 and fails the
// applied-set check: one shed heartbeat would silently drop every frame
// after it.
func TestStageBatchSkipsShedStopsAtError(t *testing.T) {
	const n, k, m = 8, 2, 5
	for _, tc := range []struct {
		name    string
		failAt  int // -1: no real error
		wedge   bool
		applied int
		wantErr error
	}{
		{"shed then error", m, false, m - 1, ErrUnknownJob},
		{"shed only", -1, false, n - 1, nil},
		{"commit error wins", m, true, m - 1, wal.ErrFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := waltest.NewMemFS()
			cfg := cheapCfg(2)
			cfg.IngestQueue = 1
			sv, log, _, err := Recover("wal", cfg, wal.Options{FS: fs, SyncEvery: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			// Job a's shard is held full; job b and the unknown job u
			// share the other shard.
			a, b := uint64(1), uint64(2)
			for sv.reg.shardFor(b) == sv.reg.shardFor(a) {
				b++
			}
			u := b + 1
			for sv.reg.shardFor(u) != sv.reg.shardFor(b) {
				u++
			}
			for _, id := range []uint64{a, b} {
				if err := sv.StartJob(pipelineSpec(id), nil); err != nil {
					t.Fatal(err)
				}
			}
			var body bytes.Buffer
			ww := wire.NewWriter(&body)
			for i := 0; i < n; i++ {
				e := wire.Event{Kind: wire.EventTaskStart, JobID: b, TaskID: i, Time: float64(i)}
				switch i {
				case k:
					e = wire.Event{Kind: wire.EventHeartbeat, JobID: a, TaskID: 0, Time: 1, Features: []float64{1, 1}}
				case tc.failAt:
					e.JobID = u
				}
				if err := ww.WriteEvent(e); err != nil {
					t.Fatal(err)
				}
			}
			full := sv.reg.shardFor(a)
			occupy(full)
			defer free(full)
			if tc.wedge {
				fs.SetBudget(fs.TotalWritten())
			}
			mark := len(fs.Journal)
			fed, err := sv.Feed(wire.NewReader(&body), nil)

			rep, rerr := sv.Report(b)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if rep.Started != tc.applied || fed.Events != tc.applied || fed.Shed != 1 {
				t.Errorf("%d of job b's starts applied, Feed counts %+v; want %d events and 1 shed",
					rep.Started, fed, tc.applied)
			}
			writes := 0
			for _, op := range fs.Journal[mark:] {
				if op.Kind == waltest.OpWrite {
					writes++
				}
			}
			if writes != 1 {
				t.Errorf("Feed wrote the log %d times, want exactly 1 commit", writes)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("got error %v, want %v", err, tc.wantErr)
			}
			if errors.Is(err, ErrShed) {
				t.Errorf("a shed heartbeat surfaced as the body's error: %v", err)
			}
		})
	}
}
