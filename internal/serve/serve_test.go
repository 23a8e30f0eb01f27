package serve

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/nurd"
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

// ingestBatch is servetest.IngestBatch (see servetest's package comment for
// why package serve keeps a copy): events as one wire body through Feed.
func ingestBatch(sv *Server, events []wire.Event) error {
	var body bytes.Buffer
	if err := wire.WriteDump(&body, nil, events); err != nil {
		return err
	}
	_, err := sv.Feed(wire.NewReader(&body), nil)
	return err
}

// finishJob closes a job's stream at time t.
func finishJob(sv *Server, jobID uint64, t float64) error {
	return sv.Ingest(wire.Event{Kind: wire.EventJobFinish, JobID: jobID, Time: t})
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
					errs[ji] = ingestBatch(sv, JobEvents(jobs[ji], sims[ji]))
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
	if err := ingestBatch(sv, JobEvents(job, sim)); err != nil {
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
	if err := ingestBatch(sv, JobEvents(job, sim)); err != nil {
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
		if err := ingestBatch(sv, events[cut:next]); err != nil {
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
	if _, err := sv.Query(job.ID, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Query(12345, []int{0}); err == nil {
		t.Error("query for unknown job should fail")
	}
	if err := ingestBatch(sv, events[cut:]); err != nil {
		t.Fatal(err)
	}
}

// TestQueryAppendAppendsCopies: QueryAppend appends to the caller's slice —
// growing it once when it lacks room, writing into the room it has without
// reallocating, keeping what it already holds — and every verdict, its
// Prediction included, is a copy: a caller that scribbles over its reused
// slice (the HTTP front clears its slab before pooling it) cannot change the
// next answer.
func TestQueryAppendAppendsCopies(t *testing.T) {
	sv := NewServer(Config{Shards: 1})
	if err := sv.StartJob(pipelineSpec(1), nil); err != nil {
		t.Fatal(err)
	}
	pipelineWarmup(t, sv, 1, 2)
	// A heartbeat past the third boundary applies the first two fits, so
	// the running tasks carry predictions.
	if err := sv.Ingest(wire.Event{Kind: wire.EventHeartbeat, JobID: 1, TaskID: 7, Time: 35, Features: []float64{7, 1}}); err != nil {
		t.Fatal(err)
	}
	probe := []int{0, 1, 5, 7, 99} // 99 is out of range: still answered
	want, err := sv.Query(1, probe)
	if err != nil {
		t.Fatal(err)
	}
	predicted := 0
	for _, v := range want {
		if v.Prediction != nil {
			predicted++
		}
	}
	if predicted == 0 {
		t.Fatalf("no verdict carries a prediction: %+v", want)
	}
	dst, err := sv.QueryAppend(make([]TaskVerdict, 0, 2), 1, probe) // grows past its capacity
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("QueryAppend into a short slice:\n want %+v\n  got %+v", want, dst)
	}
	for i := range dst {
		if p := dst[i].Prediction; p != nil {
			*p = nurd.Prediction{Latency: -1}
		}
		dst[i] = TaskVerdict{TaskID: -7, Known: !dst[i].Known}
	}
	got, err := sv.QueryAppend(dst[:0], 1, probe)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] {
		t.Error("QueryAppend reallocated a slice that had room")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("answer changed after the caller scribbled over its slice:\n want %+v\n  got %+v", want, got)
	}
	both, err := sv.QueryAppend(got, 1, probe[:2])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(both, append(append([]TaskVerdict(nil), want...), want[:2]...)) {
		t.Fatalf("QueryAppend onto a non-empty slice: %+v", both)
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
	if err := finishJob(sv, job.ID, job.Makespan()); err != nil {
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
	if err := finishJob(sv, 1, 1); err != nil {
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
	if err := ingestBatch(sv, JobEvents(job, sim)); err != nil {
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
	if err := ingestBatch(sv, JobEvents(jobs[0], sims[0])); err != nil {
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

// rowReader is a predictor that reads every row of each view it is shown,
// twice, yielding between the passes: both reads must agree, and no value
// may postdate the view's horizon — the feeder's heartbeats carry their own
// time as every feature. It flags nothing.
type rowReader struct {
	t     *testing.T
	views atomic.Int64
}

func (*rowReader) Name() string { return "row-reader" }
func (*rowReader) Reset()       {}
func (r *rowReader) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	r.views.Add(1)
	sum := func() (s float64) {
		for _, rows := range [][][]float64{cp.FinishedX, cp.RunningX} {
			for _, row := range rows {
				for _, v := range row {
					if v > cp.TauRun {
						r.t.Errorf("view %d (tau %v) holds a feature observed at %v", cp.Index, cp.TauRun, v)
						return s
					}
					s += v
				}
			}
		}
		return s
	}
	first := sum()
	runtime.Gosched()
	if second := sum(); first != second {
		r.t.Errorf("view %d changed during its fit: row sum %v, then %v", cp.Index, first, second)
	}
	return make([]bool, len(cp.RunningIDs)), nil
}

// TestOverwriteVersusFit runs three parts at once on one job served by a
// real refit pool: a feeder whose heartbeats overwrite every task's row
// across all ten checkpoint boundaries (reusing one Features slice), the
// fits reading each view's rows on refit workers, and a querier reading
// verdicts. A view that aliased a task row would change under its fit; the
// race detector sees that even when the values happen to agree.
func TestOverwriteVersusFit(t *testing.T) {
	const tasks, steps = 16, 200
	spec := wire.JobSpec{JobID: 1, Schema: []string{"a", "b", "c"}, NumTasks: tasks, TauStra: 50,
		StragglerQuantile: 0.9, Horizon: 100, Checkpoints: 10, WarmFrac: 0.1, Seed: 1}
	pred := &rowReader{t: t}
	sv := NewServer(Config{Shards: 1})
	if err := sv.StartJob(spec, pred); err != nil {
		t.Fatal(err)
	}
	ingest := func(e wire.Event) {
		e.JobID = spec.JobID
		if err := sv.Ingest(e); err != nil {
			t.Error(err)
		}
	}
	for id := 0; id < tasks; id++ {
		ingest(wire.Event{Kind: wire.EventTaskStart, TaskID: id, Time: 0})
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ids := make([]int, tasks)
		for i := range ids {
			ids[i] = i
		}
		for {
			select {
			case <-done:
				return
			default:
			}
			vs, err := sv.Query(spec.JobID, ids)
			if err != nil || len(vs) != tasks {
				t.Errorf("query: %d verdicts, %v", len(vs), err)
				return
			}
			for i, v := range vs {
				if v.TaskID != i || !v.Known {
					t.Errorf("verdict %d: %+v", i, v)
					return
				}
			}
		}
	}()
	f := make([]float64, len(spec.Schema))
	for step := 1; step <= steps; step++ {
		tm := float64(step) / 2
		for id := 0; id < tasks; id++ {
			for i := range f {
				f[i] = tm
			}
			ingest(wire.Event{Kind: wire.EventHeartbeat, TaskID: id, Time: tm, Tick: int(tm / 10), Features: f})
		}
		if step == 2 {
			// Enough finished rows to open the warm gate from boundary 1 on.
			for id := 0; id < 4; id++ {
				ingest(wire.Event{Kind: wire.EventTaskFinish, TaskID: id, Time: tm, Latency: tm})
			}
		}
	}
	ingest(wire.Event{Kind: wire.EventJobFinish, Time: steps})
	close(done)
	wg.Wait()
	if n := pred.views.Load(); n != int64(spec.Checkpoints) {
		t.Errorf("the fits read %d views, want one per boundary (%d)", n, spec.Checkpoints)
	}
}

// heldPredictor holds each fit until release is closed, so a view stays
// pending while the test feeds more events; it flags nothing.
type heldPredictor struct{ release chan struct{} }

func (heldPredictor) Name() string { return "held" }
func (heldPredictor) Reset()       {}
func (h heldPredictor) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	<-h.release
	return make([]bool, len(cp.RunningIDs)), nil
}

// TestViewRowsAreCopies: a checkpoint view owns its rows, and a task its
// row. A boundary the warm gate turns away builds no view and leaves nothing
// pending; a gated one captures a view whose slices are sized exactly and
// whose rows stay as captured while heartbeats overwrite the tasks' rows
// during the fit. An in-process Ingest whose caller then overwrites its
// Features slice leaves the task's row as ingested.
func TestViewRowsAreCopies(t *testing.T) {
	spec := wire.JobSpec{JobID: 1, Schema: []string{"a", "b"}, NumTasks: 4, TauStra: 50,
		StragglerQuantile: 0.9, Horizon: 100, Checkpoints: 10, WarmFrac: 0.25, Seed: 1}
	release := make(chan struct{})
	j := newJobState(spec, heldPredictor{release: release}, new(refitPool))
	feed := func(e wire.Event) {
		t.Helper()
		e.JobID = spec.JobID
		if err := j.handle(&e); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 3; id++ {
		feed(wire.Event{Kind: wire.EventTaskStart, TaskID: id, Time: 0})
	}
	feed(wire.Event{Kind: wire.EventHeartbeat, TaskID: 0, Time: 5, Tick: 1, Features: []float64{1, 2}})
	feed(wire.Event{Kind: wire.EventHeartbeat, TaskID: 1, Time: 6, Tick: 1, Features: []float64{0, 0}})

	// Time 15 crosses boundary 1 (tau 10) with two running rows and nothing
	// finished: below the warm count of 2.
	feed(wire.Event{Kind: wire.EventHeartbeat, TaskID: 0, Time: 15, Tick: 2, Features: []float64{3, 4}})
	if j.checkpoint != 1 || j.pending != nil || j.pool.lag.Load() != 0 {
		t.Fatalf("boundary 1: checkpoint %d, pending %v, refit lag %d; want 1, none, 0", j.checkpoint, j.pending != nil, j.pool.lag.Load())
	}

	// Boundary 2 (tau 20) sees two finished rows and one running: gated.
	feed(wire.Event{Kind: wire.EventHeartbeat, TaskID: 1, Time: 16, Tick: 2, Features: []float64{5, 6}})
	feed(wire.Event{Kind: wire.EventHeartbeat, TaskID: 2, Time: 16, Tick: 2, Features: []float64{7, 8}})
	feed(wire.Event{Kind: wire.EventTaskFinish, TaskID: 1, Time: 17, Latency: 17})
	feed(wire.Event{Kind: wire.EventTaskFinish, TaskID: 2, Time: 18, Latency: 18})
	feed(wire.Event{Kind: wire.EventTaskStart, TaskID: 3, Time: 25})
	cp := j.pending
	if cp == nil {
		t.Fatal("boundary 2 left no view pending")
	}
	if len(cp.FinishedIDs) != 2 || cap(cp.FinishedX) != 2 || len(cp.RunningIDs) != 1 || cap(cp.RunningElapsed) != 1 {
		t.Errorf("boundary 2 view: %d finished (cap %d), %d running (cap %d); want each slice sized exactly",
			len(cp.FinishedIDs), cap(cp.FinishedX), len(cp.RunningIDs), cap(cp.RunningElapsed))
	}
	// The fit is held; every task in the view heartbeats again before
	// boundary 3 (tau 30).
	for id := 0; id < 3; id++ {
		feed(wire.Event{Kind: wire.EventHeartbeat, TaskID: id, Time: 26, Tick: 3, Features: []float64{-1, -1}})
	}
	if want := [][]float64{{5, 6}, {7, 8}}; fmt.Sprint(cp.FinishedX) != fmt.Sprint(want) {
		t.Errorf("pending view's finished rows %v after later heartbeats, captured %v", cp.FinishedX, want)
	}
	if want := [][]float64{{3, 4}}; fmt.Sprint(cp.RunningX) != fmt.Sprint(want) {
		t.Errorf("pending view's running rows %v after later heartbeats, captured %v", cp.RunningX, want)
	}
	close(release)
	feed(wire.Event{Kind: wire.EventJobFinish, Time: 40})

	sv := NewServer(cheapCfg(1))
	if err := sv.StartJob(spec, nil); err != nil {
		t.Fatal(err)
	}
	f := []float64{1, 2}
	for _, e := range []wire.Event{
		{Kind: wire.EventTaskStart, JobID: 1, TaskID: 0, Time: 0},
		{Kind: wire.EventHeartbeat, JobID: 1, TaskID: 0, Time: 5, Tick: 1, Features: f},
	} {
		if err := sv.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	f[0], f[1] = -1, -1
	ij, _ := sv.reg.shardFor(1).lookup(1)
	ij.mu.Lock()
	row := fmt.Sprint(ij.tasks[0].features)
	ij.mu.Unlock()
	if row != "[1 2]" {
		t.Errorf("task row %s after the caller overwrote its heartbeat's slice, ingested [1 2]", row)
	}
}
