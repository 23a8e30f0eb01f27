package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/simulator"
	"repro/internal/trace"
	"repro/internal/wire"
)

// testJobs generates n jobs plus their prepared replays.
func testJobs(t testing.TB, cfg trace.GenConfig, n int) ([]*trace.Job, []*simulator.Sim) {
	t.Helper()
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen.Jobs(n)
	sims := make([]*simulator.Sim, n)
	for i, j := range jobs {
		s, err := simulator.New(j, simulator.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = s
	}
	return jobs, sims
}

// nurdSeed applies experiments.Run's per-(job, method) seed derivation to
// the NURD row, so the serving path builds the very same predictor the
// offline Table 3 pass would.
func nurdSeed(t testing.TB, base uint64, ji int) (uint64, predictor.Factory) {
	t.Helper()
	mi, fac, ok := predictor.FindFactory("NURD")
	if !ok {
		t.Fatal("NURD factory not found")
	}
	return experiments.UnitSeed(base, ji, mi), fac
}

// TestServerMatchesOffline is the core equivalence claim: streaming a job
// through the Server terminates exactly the tasks, at exactly the
// checkpoints, that simulator.Evaluate's offline replay of the same job and
// predictor does — on both trace flavors, with all jobs streamed
// concurrently.
func TestServerMatchesOffline(t *testing.T) {
	const seed = 42
	for _, mode := range []trace.GenConfig{
		trace.DefaultGoogleConfig(seed),
		trace.DefaultAlibabaConfig(seed),
	} {
		mode := mode
		t.Run(mode.Mode.String(), func(t *testing.T) {
			t.Parallel()
			const n = 4
			jobs, sims := testJobs(t, mode, n)
			sv := NewServer(Config{Shards: 4})

			offline := make([]*simulator.Result, n)
			for ji := range jobs {
				s, fac := nurdSeed(t, seed, ji)
				res, err := simulator.Evaluate(sims[ji], fac.New(sims[ji], s))
				if err != nil {
					t.Fatal(err)
				}
				offline[ji] = res
			}

			var wg sync.WaitGroup
			errs := make([]error, n)
			for ji := range jobs {
				s, fac := nurdSeed(t, seed, ji)
				if err := sv.StartJob(SpecFor(sims[ji], s), fac.New(sims[ji], s)); err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(ji int) {
					defer wg.Done()
					errs[ji] = sv.IngestBatch(JobEvents(jobs[ji], sims[ji]))
				}(ji)
			}
			wg.Wait()
			for ji, err := range errs {
				if err != nil {
					t.Fatalf("job %d: %v", ji, err)
				}
			}

			for ji := range jobs {
				rep, err := sv.Report(jobs[ji].ID)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Done {
					t.Fatalf("job %d not done after its stream closed", ji)
				}
				want := offline[ji].PredictedAt
				if len(rep.PredictedAt) != len(want) {
					t.Errorf("job %d: served %d terminations, offline %d",
						ji, len(rep.PredictedAt), len(want))
				}
				for id, k := range want {
					if gk, ok := rep.PredictedAt[id]; !ok || gk != k {
						t.Errorf("job %d task %d: offline flagged at %d, served %d (present=%v)",
							ji, id, k, gk, ok)
					}
				}
				// The identical terminated set implies the identical final
				// confusion matrix; check it end to end anyway.
				servedF1 := rep.Confusion(sims[ji].Truth()).F1()
				if off := offline[ji].Final.F1(); servedF1 != off {
					t.Errorf("job %d: served F1 %.4f != offline F1 %.4f", ji, servedF1, off)
				}
			}
		})
	}
}

// flagAll flags every running task at every checkpoint (a trivially cheap
// predictor for protocol and concurrency tests).
type flagAll struct{ calls int }

func (f *flagAll) Name() string { return "flag-all" }
func (f *flagAll) Reset()       { f.calls = 0 }
func (f *flagAll) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	f.calls++
	out := make([]bool, len(cp.RunningIDs))
	for i := range out {
		out[i] = true
	}
	return out, nil
}

// recorder captures the checkpoints it is shown.
type recorder struct{ cps []*simulator.Checkpoint }

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) Reset()       { r.cps = nil }
func (r *recorder) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	r.cps = append(r.cps, cp)
	return make([]bool, len(cp.RunningIDs)), nil
}

func smallJobs(t testing.TB, n int, seed uint64) ([]*trace.Job, []*simulator.Sim) {
	t.Helper()
	cfg := trace.DefaultGoogleConfig(seed)
	cfg.MinTasks, cfg.MaxTasks = 30, 60
	return testJobs(t, cfg, n)
}

func TestCheckpointBoundaries(t *testing.T) {
	jobs, sims := smallJobs(t, 1, 7)
	job, sim := jobs[0], sims[0]
	rec := &recorder{}
	sv := NewServer(Config{Shards: 2})
	if err := sv.StartJob(SpecFor(sim, 1), rec); err != nil {
		t.Fatal(err)
	}
	if err := sv.IngestBatch(JobEvents(job, sim)); err != nil {
		t.Fatal(err)
	}
	// The recorder sees exactly the gated checkpoints the offline replay
	// would build, in ascending order with the simulator's horizons.
	warm := simulator.WarmCount(job.NumTasks(), sim.Cfg.WarmFrac)
	wantIdx := []int{}
	for k := 1; k <= sim.Cfg.Checkpoints; k++ {
		cp := sim.At(k, nil)
		if len(cp.FinishedIDs) >= warm && len(cp.RunningIDs) > 0 {
			wantIdx = append(wantIdx, k)
		}
	}
	if len(rec.cps) != len(wantIdx) {
		t.Fatalf("fired %d gated checkpoints, offline gates %d", len(rec.cps), len(wantIdx))
	}
	for i, cp := range rec.cps {
		k := wantIdx[i]
		if cp.Index != k {
			t.Fatalf("checkpoint %d has index %d, want %d", i, cp.Index, k)
		}
		if cp.TauRun != sim.TauRun(k) {
			t.Errorf("checkpoint %d: tau_run %v, want %v", k, cp.TauRun, sim.TauRun(k))
		}
		off := sim.At(k, nil)
		if len(cp.FinishedIDs) != len(off.FinishedIDs) || len(cp.RunningIDs) != len(off.RunningIDs) {
			t.Errorf("checkpoint %d: %d/%d finished/running, offline %d/%d", k,
				len(cp.FinishedIDs), len(cp.RunningIDs), len(off.FinishedIDs), len(off.RunningIDs))
		}
		for _, e := range cp.RunningElapsed {
			if e < 0 {
				t.Errorf("checkpoint %d: negative elapsed %v", k, e)
			}
		}
	}
}

func TestTerminationDropsLateEvents(t *testing.T) {
	jobs, sims := smallJobs(t, 1, 11)
	job, sim := jobs[0], sims[0]
	sv := NewServer(Config{Shards: 1})
	if err := sv.StartJob(SpecFor(sim, 1), &flagAll{}); err != nil {
		t.Fatal(err)
	}
	if err := sv.IngestBatch(JobEvents(job, sim)); err != nil {
		t.Fatal(err)
	}
	rep, err := sv.Report(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Terminated == 0 {
		t.Fatal("flag-all predictor terminated nothing")
	}
	st := sv.Stats()
	if st.DroppedEvents == 0 {
		t.Error("late heartbeats/finishes for terminated tasks should be counted as dropped")
	}
	if st.Terminations != uint64(rep.Terminated) {
		t.Errorf("stats count %d terminations, report %d", st.Terminations, rep.Terminated)
	}
	// Terminated tasks never rejoin: they must not be double-flagged.
	seen := map[int]bool{}
	for id := range rep.PredictedAt {
		if seen[id] {
			t.Errorf("task %d flagged twice", id)
		}
		seen[id] = true
	}
}

func TestQueryVerdicts(t *testing.T) {
	jobs, sims := smallJobs(t, 1, 13)
	job, sim := jobs[0], sims[0]
	sv := NewServer(DefaultConfig())
	spec := SpecFor(sim, 99)
	if err := sv.StartJob(spec, nil); err != nil { // default NURD factory
		t.Fatal(err)
	}
	events := JobEvents(job, sim)
	ids := make([]int, job.NumTasks()+1)
	for i := range ids {
		ids[i] = i - 1 // include one out-of-range ID (-1)
	}
	// Stream the job in chunks, querying every task between chunks; once
	// the per-job model is warm, running tasks carry model-backed
	// predictions.
	modeled := 0
	cut := 0
	for _, frac := range []float64{0.2, 0.3, 0.4, 0.5} {
		next := int(frac * float64(len(events)))
		if err := sv.IngestBatch(events[cut:next]); err != nil {
			t.Fatal(err)
		}
		cut = next
		vs, err := sv.Query(job.ID, ids)
		if err != nil {
			t.Fatal(err)
		}
		if vs[0].Known || vs[0].Straggler {
			t.Error("out-of-range task ID must be unknown, not a verdict")
		}
		for _, v := range vs[1:] {
			if v.Prediction != nil {
				modeled++
				if v.Prediction.Weight <= 0 || v.Prediction.Weight > 1 {
					t.Errorf("task %d: weight %v outside (0,1]", v.TaskID, v.Prediction.Weight)
				}
				if got := v.Prediction.Adjusted >= spec.TauStra; got != v.Straggler {
					t.Errorf("task %d: verdict %v disagrees with adjusted/tau test %v", v.TaskID, v.Straggler, got)
				}
			}
			if v.Finished {
				wantStraggler := job.Tasks[v.TaskID].Latency >= spec.TauStra
				if v.Straggler != wantStraggler {
					t.Errorf("finished task %d: verdict %v, true-latency test %v", v.TaskID, v.Straggler, wantStraggler)
				}
			}
		}
	}
	if modeled == 0 {
		t.Error("no running task ever had a model-backed prediction mid-stream")
	}
	if _, err := sv.IsStraggler(job.ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Query(12345, []int{0}); err == nil {
		t.Error("query for unknown job should fail")
	}
	if err := sv.IngestBatch(events[cut:]); err != nil {
		t.Fatal(err)
	}
}

func TestEventValidation(t *testing.T) {
	jobs, sims := smallJobs(t, 1, 17)
	job, sim := jobs[0], sims[0]
	sv := NewServer(Config{Shards: 2})
	if err := sv.Ingest(wire.Event{Kind: wire.EventTaskStart, JobID: job.ID, TaskID: 0}); err == nil {
		t.Error("event for unregistered job should fail")
	}
	if err := sv.StartJob(SpecFor(sim, 1), &flagAll{}); err != nil {
		t.Fatal(err)
	}
	if err := sv.StartJob(SpecFor(sim, 1), &flagAll{}); err == nil {
		t.Error("duplicate StartJob should fail")
	}
	cases := []struct {
		name string
		e    wire.Event
	}{
		{"heartbeat before start", wire.Event{Kind: wire.EventHeartbeat, JobID: job.ID, TaskID: 0, Features: make([]float64, len(job.Schema))}},
		{"finish before start", wire.Event{Kind: wire.EventTaskFinish, JobID: job.ID, TaskID: 0}},
		{"task out of range", wire.Event{Kind: wire.EventTaskStart, JobID: job.ID, TaskID: job.NumTasks()}},
		{"negative task", wire.Event{Kind: wire.EventTaskStart, JobID: job.ID, TaskID: -1}},
	}
	for _, c := range cases {
		if err := sv.Ingest(c.e); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	if err := sv.Ingest(wire.Event{Kind: wire.EventTaskStart, JobID: job.ID, TaskID: 0}); err != nil {
		t.Fatal(err)
	}
	if err := sv.Ingest(wire.Event{Kind: wire.EventTaskStart, JobID: job.ID, TaskID: 0}); err == nil {
		t.Error("duplicate task start should fail")
	}
	if err := sv.Ingest(wire.Event{Kind: wire.EventHeartbeat, JobID: job.ID, TaskID: 0, Features: []float64{1}}); err == nil {
		t.Error("schema-mismatched heartbeat should fail")
	}
	if err := sv.Ingest(wire.Event{Kind: wire.EventTaskFinish, JobID: job.ID, TaskID: 0, Latency: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sv.Ingest(wire.Event{Kind: wire.EventTaskFinish, JobID: job.ID, TaskID: 0, Latency: 1}); err == nil {
		t.Error("duplicate finish should fail")
	}
	if err := sv.FinishJob(job.ID, job.Makespan()); err != nil {
		t.Fatal(err)
	}
	if err := sv.Ingest(wire.Event{Kind: wire.EventTaskStart, JobID: job.ID, TaskID: 1}); err == nil {
		t.Error("event after job-finish should fail")
	}
}

func TestSpecValidation(t *testing.T) {
	sv := NewServer(DefaultConfig())
	base := wire.JobSpec{JobID: 1, Schema: []string{"a"}, NumTasks: 10, TauStra: 5, Horizon: 100}
	bad := []func(*wire.JobSpec){
		func(s *wire.JobSpec) { s.NumTasks = 0 },
		func(s *wire.JobSpec) { s.NumTasks = wire.MaxSnapTasks + 1 },
		// Within the count cap but too many tasks for one snapshot frame.
		func(s *wire.JobSpec) { s.NumTasks = 1 << 20 },
		// Fits a snapshot frame, but tasks x checkpoints exceeds the
		// history-retention cap.
		func(s *wire.JobSpec) { s.NumTasks = 400000; s.Checkpoints = 10 },
		func(s *wire.JobSpec) { s.Schema = nil },
		func(s *wire.JobSpec) { s.Schema = make([]string, wire.MaxSchemaCols+1) },
		func(s *wire.JobSpec) { s.Schema = []string{strings.Repeat("x", wire.MaxSchemaName+1)} },
		func(s *wire.JobSpec) { s.TauStra = 0 },
		func(s *wire.JobSpec) { s.Horizon = -1 },
		func(s *wire.JobSpec) { s.Checkpoints = -1 },
		func(s *wire.JobSpec) { s.Checkpoints = wire.MaxSnapCheckpoints + 1 },
		func(s *wire.JobSpec) { s.WarmFrac = 0.9 },
	}
	for i, mut := range bad {
		s := base
		mut(&s)
		if err := sv.StartJob(s, &flagAll{}); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if err := sv.StartJob(base, &flagAll{}); err != nil {
		t.Fatalf("defaulted spec rejected: %v", err)
	}
}

// TestServerBudget: the registration budget bounds aggregate task-state
// allocation across jobs (the aggregate complement to the per-spec wire
// bounds), failed registrations do not leak budget, and DropJob releases
// it.
func TestServerBudget(t *testing.T) {
	sv := NewServer(Config{Shards: 2, MaxJobs: 2, MaxTasks: 30})
	spec := func(id uint64, tasks int) wire.JobSpec {
		return wire.JobSpec{JobID: id, Schema: []string{"a"}, NumTasks: tasks, TauStra: 5, Horizon: 100}
	}
	if err := sv.StartJob(spec(1, 10), &flagAll{}); err != nil {
		t.Fatal(err)
	}
	// A failed duplicate registration must return both its job slot and its
	// task claim.
	if err := sv.StartJob(spec(1, 5), &flagAll{}); err == nil || errors.Is(err, ErrOverloaded) {
		t.Fatalf("duplicate registration: %v (want a non-budget error)", err)
	}
	// 2 jobs / 30 tasks: exactly at both caps — fits only if the duplicate
	// leaked nothing.
	if err := sv.StartJob(spec(2, 20), &flagAll{}); err != nil {
		t.Fatalf("budget leaked by failed registration: %v", err)
	}
	if err := sv.StartJob(spec(3, 1), &flagAll{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("job cap: %v (want ErrOverloaded)", err)
	}
	// Dropping job 1 frees its slot and 10 tasks.
	if err := sv.FinishJob(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := sv.DropJob(1); err != nil {
		t.Fatal(err)
	}
	if err := sv.StartJob(spec(3, 11), &flagAll{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("task cap: %v (want ErrOverloaded)", err)
	}
	if err := sv.StartJob(spec(3, 10), &flagAll{}); err != nil {
		t.Fatalf("budget not released by DropJob: %v", err)
	}
}

// failing errors on its second refit.
type failing struct{ calls int }

func (f *failing) Name() string { return "failing" }
func (f *failing) Reset()       { f.calls = 0 }
func (f *failing) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	f.calls++
	if f.calls > 1 {
		return nil, fmt.Errorf("synthetic model failure")
	}
	return make([]bool, len(cp.RunningIDs)), nil
}

func TestPredictorFailureClosesJob(t *testing.T) {
	jobs, sims := smallJobs(t, 1, 19)
	job, sim := jobs[0], sims[0]
	sv := NewServer(Config{Shards: 1})
	if err := sv.StartJob(SpecFor(sim, 1), &failing{}); err != nil {
		t.Fatal(err)
	}
	// Ingest everything in one batch; a mid-stream model failure must not
	// wedge the shard or fail the stream (which may carry other jobs'
	// events) — the job is closed as failed and the rest of its events
	// drain as drops.
	if err := sv.IngestBatch(JobEvents(job, sim)); err != nil {
		t.Fatalf("stream after predictor failure must drain cleanly: %v", err)
	}
	rep, err := sv.Report(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Done || !rep.Failed {
		t.Errorf("predictor failure should close the job as failed (done=%v failed=%v)",
			rep.Done, rep.Failed)
	}
	if rep.Refits < 2 {
		t.Errorf("want >= 2 refit attempts, got %d", rep.Refits)
	}
	st := sv.Stats()
	if st.ActiveJobs != 0 {
		t.Errorf("failure-closed job still counted active (%d)", st.ActiveJobs)
	}
	if st.DroppedEvents == 0 {
		t.Error("post-failure events should be counted as dropped")
	}
	// Refit statistics survive reclamation of the job's state.
	refitsBefore := st.Refits
	if err := sv.DropJob(job.ID); err != nil {
		t.Fatal(err)
	}
	st = sv.Stats()
	if st.Refits != refitsBefore {
		t.Errorf("refit count went from %d to %d after DropJob", refitsBefore, st.Refits)
	}
	if st.ActiveJobs != 0 || st.Jobs != 0 {
		t.Errorf("after drop: jobs=%d active=%d, want 0/0", st.Jobs, st.ActiveJobs)
	}
}

func TestDropJob(t *testing.T) {
	jobs, sims := smallJobs(t, 2, 23)
	sv := NewServer(Config{Shards: 2})
	for i := range jobs {
		if err := sv.StartJob(SpecFor(sims[i], uint64(i)), &flagAll{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.DropJob(jobs[0].ID); err == nil {
		t.Error("dropping a live job should fail")
	}
	if err := sv.IngestBatch(JobEvents(jobs[0], sims[0])); err != nil {
		t.Fatal(err)
	}
	if err := sv.DropJob(jobs[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Report(jobs[0].ID); err == nil {
		t.Error("report after drop should fail")
	}
	if st := sv.Stats(); st.Jobs != 1 {
		t.Errorf("stats report %d jobs after drop, want 1", st.Jobs)
	}
}

// TestConcurrentManyJobs is the race stressor: dozens of jobs streamed from
// one goroutine each, with concurrent queries and stats reads, across a
// small shard count to force shard sharing.
func TestConcurrentManyJobs(t *testing.T) {
	const n = 24
	jobs, sims := smallJobs(t, n, 29)
	sv := NewServer(Config{Shards: 4})
	totalEvents := 0
	var wg sync.WaitGroup
	for i := range jobs {
		if err := sv.StartJob(SpecFor(sims[i], uint64(i)), &flagAll{}); err != nil {
			t.Fatal(err)
		}
		events := JobEvents(jobs[i], sims[i])
		totalEvents += len(events)
		wg.Add(1)
		go func(i int, events []wire.Event) {
			defer wg.Done()
			for _, e := range events {
				if err := sv.Ingest(e); err != nil {
					t.Errorf("job %d: %v", i, err)
					return
				}
			}
		}(i, events)
		wg.Add(1)
		go func(id uint64, ntasks int) { // concurrent query traffic
			defer wg.Done()
			for q := 0; q < 50; q++ {
				if _, err := sv.Query(id, []int{q % ntasks}); err != nil {
					t.Errorf("query job %d: %v", id, err)
					return
				}
			}
		}(jobs[i].ID, jobs[i].NumTasks())
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = sv.Stats()
			}
		}
	}()
	wg.Wait()
	close(done)
	st := sv.Stats()
	if st.Jobs != n || st.ActiveJobs != 0 {
		t.Errorf("stats: jobs=%d active=%d, want %d/0", st.Jobs, st.ActiveJobs, n)
	}
	if st.Events != uint64(totalEvents) {
		t.Errorf("stats count %d events (%d dropped), streamed %d",
			st.Events, st.DroppedEvents, totalEvents)
	}
	for i := range jobs {
		rep, err := sv.Report(jobs[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Done {
			t.Errorf("job %d not done", i)
		}
	}
}

// TestUngatedBoundaryCapturesNothing: a boundary the warm gate turns away
// hands the predictor nothing, so it must also keep nothing — no view in
// history, no observation marked captured — and the pooled slice a task held
// across it goes back to the pool when the next heartbeat replaces it. A
// gated boundary still captures what it shows the predictor.
func TestUngatedBoundaryCapturesNothing(t *testing.T) {
	spec := wire.JobSpec{JobID: 1, Schema: []string{"a", "b"}, NumTasks: 4, TauStra: 50,
		StragglerQuantile: 0.9, Horizon: 100, Checkpoints: 10, WarmFrac: 0.25, Seed: 1}
	// sync.Pool drops a quarter of its Puts under the race detector, so the
	// recycle is looked for over a few fresh jobs; without the detector the
	// first finds it.
	for attempt := 1; ; attempt++ {
		rec := &recorder{}
		j := newJobState(spec, rec)
		feed := func(e wire.Event) {
			t.Helper()
			e.JobID = spec.JobID
			if err := j.handle(e); err != nil {
				t.Fatal(err)
			}
		}
		held := []float64{1, 2} // as the pooled decode path would have drawn it
		for id := 0; id < 3; id++ {
			feed(wire.Event{Kind: wire.EventTaskStart, TaskID: id, Time: 0})
		}
		feed(wire.Event{Kind: wire.EventHeartbeat, TaskID: 0, Time: 5, Tick: 1, Features: held, Pooled: true})
		feed(wire.Event{Kind: wire.EventHeartbeat, TaskID: 1, Time: 6, Tick: 1, Features: []float64{0, 0}, Pooled: true})

		// Time 15 crosses boundary 1 (tau 10) with two running rows and
		// nothing finished: below the warm count of 2. The same heartbeat
		// then replaces task 0's observation.
		feed(wire.Event{Kind: wire.EventHeartbeat, TaskID: 0, Time: 15, Tick: 2, Features: []float64{3, 4}, Pooled: true})
		if j.checkpoint != 1 || len(rec.cps) != 0 || len(j.history) != 0 {
			t.Fatalf("boundary 1: checkpoint %d, %d views shown, %d kept; want 1, 0, 0", j.checkpoint, len(rec.cps), len(j.history))
		}
		for id := range j.tasks {
			if j.tasks[id].captured {
				t.Fatalf("task %d captured by a boundary that built no view", id)
			}
		}
		recycled := wire.GetObservation(2)
		if &recycled[0] != &held[0] {
			if attempt < 20 {
				continue
			}
			t.Fatal("the observation replaced after an ungated boundary never came back from the pool")
		}

		// Boundary 2 (tau 20) sees two finished rows and one running: gated.
		feed(wire.Event{Kind: wire.EventHeartbeat, TaskID: 1, Time: 16, Tick: 2, Features: []float64{5, 6}, Pooled: true})
		feed(wire.Event{Kind: wire.EventHeartbeat, TaskID: 2, Time: 16, Tick: 2, Features: []float64{7, 8}, Pooled: true})
		feed(wire.Event{Kind: wire.EventTaskFinish, TaskID: 1, Time: 17, Latency: 17})
		feed(wire.Event{Kind: wire.EventTaskFinish, TaskID: 2, Time: 18, Latency: 18})
		feed(wire.Event{Kind: wire.EventTaskStart, TaskID: 3, Time: 25})
		if len(rec.cps) != 1 || len(j.history) != 1 {
			t.Fatalf("boundary 2: %d views shown, %d kept; want 1, 1", len(rec.cps), len(j.history))
		}
		cp := rec.cps[0]
		if len(cp.FinishedIDs) != 2 || cap(cp.FinishedX) != 2 || len(cp.RunningIDs) != 1 || cap(cp.RunningElapsed) != 1 {
			t.Errorf("boundary 2 view: %d finished (cap %d), %d running (cap %d); want each slice sized exactly",
				len(cp.FinishedIDs), cap(cp.FinishedX), len(cp.RunningIDs), cap(cp.RunningElapsed))
		}
		for id := 0; id < 3; id++ {
			if !j.tasks[id].captured {
				t.Errorf("task %d is in a kept view but not marked captured", id)
			}
		}
		return
	}
}
