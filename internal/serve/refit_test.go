package serve

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/nurd"
	"repro/internal/predictor"
	"repro/internal/simulator"
	"repro/internal/trace"
	"repro/internal/wire"
)

// pipelineSpec is a hand-built job whose checkpoint boundaries sit at known
// times (Horizon 100, 10 checkpoints -> boundaries at 10, 20, ...), so tests
// can place events precisely before or after a boundary crossing.
func pipelineSpec(id uint64) wire.JobSpec {
	return wire.JobSpec{
		JobID: id, Schema: []string{"a", "b"}, NumTasks: 8, TauStra: 50,
		StragglerQuantile: 0.9, Horizon: 100, Checkpoints: 10, WarmFrac: 0.1,
	}
}

// startTasks starts every task at t=0, heartbeats features, and finishes the
// first nFinish tasks (short latencies), leaving the rest running.
func pipelineWarmup(t *testing.T, sv *Server, id uint64, nFinish int) {
	t.Helper()
	spec := pipelineSpec(id)
	for i := 0; i < spec.NumTasks; i++ {
		if err := sv.Ingest(wire.Event{Kind: wire.EventTaskStart, JobID: id, TaskID: i, Time: 0}); err != nil {
			t.Fatal(err)
		}
		if err := sv.Ingest(wire.Event{Kind: wire.EventHeartbeat, JobID: id, TaskID: i, Time: 1,
			Features: []float64{float64(i), 1}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nFinish; i++ {
		if err := sv.Ingest(wire.Event{Kind: wire.EventTaskFinish, JobID: id, TaskID: i, Time: 2, Latency: 2}); err != nil {
			t.Fatal(err)
		}
	}
}

// gatedPredictor blocks inside Predict until its gate is closed, simulating
// a refit that outlasts the events streaming past it. It flags nothing.
type gatedPredictor struct {
	gate  chan struct{}
	calls int
}

func (p *gatedPredictor) Name() string { return "gated" }
func (p *gatedPredictor) Reset()       { p.calls = 0 }
func (p *gatedPredictor) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	p.calls++
	<-p.gate
	return make([]bool, len(cp.RunningIDs)), nil
}

// TestIngestNotBlockedByInflightRefit is the pipeline's headline claim: a
// model refit in progress — even one that never finishes on its own — does
// not block that job's ingest or queries. (Before the pipeline, the fit ran
// inside the per-job lock and every event of that job waited ~a refit
// latency at each boundary.)
func TestIngestNotBlockedByInflightRefit(t *testing.T) {
	gate := make(chan struct{})
	cfg := Config{Shards: 1, NewPredictor: func(wire.JobSpec) simulator.Predictor {
		return &gatedPredictor{gate: gate}
	}}
	sv := NewServer(cfg)
	if err := sv.StartJob(pipelineSpec(1), nil); err != nil {
		t.Fatal(err)
	}
	pipelineWarmup(t, sv, 1, 2)
	// Cross the first boundary: the view is captured and its fit starts on a
	// worker, where it stalls on the gate.
	if err := sv.Ingest(wire.Event{Kind: wire.EventHeartbeat, JobID: 1, TaskID: 2, Time: 11,
		Features: []float64{2, 1}}); err != nil {
		t.Fatal(err)
	}

	// A flood of events strictly before the next boundary, plus queries and
	// stats reads, must all complete while the fit is stalled.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 2000; i++ {
			e := wire.Event{Kind: wire.EventHeartbeat, JobID: 1, TaskID: i % 8, Time: 12,
				Features: []float64{float64(i), 1}}
			if err := sv.Ingest(e); err != nil {
				done <- err
				return
			}
		}
		_, err := sv.Query(1, []int{0, 1, 2, 3})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ingest blocked while a refit was inflight")
	}

	// The stall is observable: one captured-but-unapplied refit, which lands
	// on a worker (inflight) as soon as the pool hands it off.
	var st Stats
	for deadline := time.Now().Add(5 * time.Second); ; {
		st = sv.Stats()
		if st.RefitInflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled fit never reached a worker: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if st.RefitLag != 1 {
		t.Fatalf("stalled pipeline: lag=%d, want 1", st.RefitLag)
	}
	if st.Refits != 0 {
		t.Fatalf("refit applied while its fit was stalled (refits=%d)", st.Refits)
	}
	rep, err := sv.Report(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 0 || rep.PendingRefits != 1 {
		t.Fatalf("report generation=%d pending=%d, want 0/1", rep.Generation, rep.PendingRefits)
	}

	// Release the fit and close the stream: the drain applies everything.
	close(gate)
	if err := finishJob(sv, 1, 100); err != nil {
		t.Fatal(err)
	}
	st = sv.Stats()
	if st.RefitLag != 0 || st.RefitQueue != 0 || st.RefitInflight != 0 {
		t.Fatalf("drained pipeline not idle: %+v", st)
	}
	if st.Refits == 0 {
		t.Fatal("no refit applied after drain")
	}
	rep, err = sv.Report(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != rep.Refits || rep.PendingRefits != 0 {
		t.Fatalf("drained report generation=%d refits=%d pending=%d", rep.Generation, rep.Refits, rep.PendingRefits)
	}
}

// TestRefitAppliesAtNextBoundary pins the pipeline's determinism contract:
// a fit's verdicts are applied when the next boundary crossing arrives — a
// position defined by the event stream — not when the fit happens to finish.
func TestRefitAppliesAtNextBoundary(t *testing.T) {
	sv := NewServer(Config{Shards: 1, NewPredictor: func(wire.JobSpec) simulator.Predictor { return &flagAll{} }})
	if err := sv.StartJob(pipelineSpec(1), nil); err != nil {
		t.Fatal(err)
	}
	pipelineWarmup(t, sv, 1, 2)
	// Cross boundary 1: flagAll's verdicts (terminate everything running)
	// are computed in the background but must not land yet.
	if err := sv.Ingest(wire.Event{Kind: wire.EventHeartbeat, JobID: 1, TaskID: 2, Time: 11,
		Features: []float64{2, 1}}); err != nil {
		t.Fatal(err)
	}
	// Give the (cheap) fit ample time to complete in the background.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := sv.Stats()
		if st.RefitInflight == 0 && st.RefitQueue == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background fit never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if rep, _ := sv.Report(1); rep.Terminated != 0 || rep.Generation != 0 {
		t.Fatalf("verdicts applied before the next boundary: terminated=%d gen=%d",
			rep.Terminated, rep.Generation)
	}
	if st := sv.Stats(); st.RefitLag != 1 {
		t.Fatalf("computed-but-unapplied refit not counted in lag: %d", st.RefitLag)
	}
	// Cross boundary 2: the stored verdicts land first, so the 6 tasks that
	// were running at boundary 1 are terminated with FlaggedAt = 1.
	if err := sv.Ingest(wire.Event{Kind: wire.EventHeartbeat, JobID: 1, TaskID: 3, Time: 21,
		Features: []float64{3, 1}}); err != nil {
		t.Fatal(err)
	}
	rep, err := sv.Report(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Terminated != 6 || rep.Generation != 1 {
		t.Fatalf("after next boundary: terminated=%d gen=%d, want 6/1", rep.Terminated, rep.Generation)
	}
	for id, k := range rep.PredictedAt {
		if k != 1 {
			t.Fatalf("task %d flagged at %d, want boundary 1", id, k)
		}
	}
}

// offlineWarmNURD builds the warm-mode predictor serve's default factory
// would, for offline reference replays.
func offlineWarmNURD(spec wire.JobSpec) *predictor.NURDPredictor {
	cfg := nurd.DefaultWarmConfig()
	cfg.Seed = spec.Seed
	return predictor.NewNURDWith("NURD-warm", cfg, predictor.ConfirmFor(spec.Schema))
}

// TestWarmServingMatchesOfflineWarm is scratch's equivalence claim carried
// over to warm mode: streaming a job through a warm-mode server terminates
// exactly the tasks, at exactly the checkpoints, that an offline replay with
// the same warm-refit predictor does. (Warm mode changes the model bits, so
// it is not compared against the scratch offline path — that comparison is
// the epsilon gate below.)
func TestWarmServingMatchesOfflineWarm(t *testing.T) {
	const n = 3
	jobs, sims := smallJobs(t, n, 53)
	sv := NewServer(Config{Shards: 2, RefitMode: wire.RefitWarm})
	for i := range jobs {
		s, _ := nurdSeed(t, 53, i)
		spec := SpecFor(sims[i], s)
		if err := sv.StartJob(spec, nil); err != nil {
			t.Fatal(err)
		}
		if err := ingestBatch(sv, JobEvents(jobs[i], sims[i])); err != nil {
			t.Fatal(err)
		}
		spec.RefitMode = wire.RefitWarm
		off, err := simulator.Evaluate(sims[i], offlineWarmNURD(spec))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sv.Report(spec.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.PredictedAt, off.PredictedAt) {
			t.Errorf("job %d: warm serving terminated %v, offline warm %v", i, rep.PredictedAt, off.PredictedAt)
		}
		if served, offline := rep.Confusion(sims[i].Truth()).F1(), off.Final.F1(); served != offline {
			t.Errorf("job %d: warm served F1 %v != offline warm F1 %v", i, served, offline)
		}
		if rep.WarmFits == 0 {
			t.Errorf("job %d: no warm fits recorded", i)
		}
	}
}

// TestWarmF1WithinEpsilonOfScratch is warm mode's accuracy gate: across a
// batch of seed-trace jobs, macro-averaged warm F1 must sit within a small
// epsilon of the scratch (Table 3) path. Warm refits see the same data
// through fewer, incrementally-grown trees, so per-job verdicts may differ —
// the gate bounds the aggregate accuracy cost of the ~3x refit speedup.
func TestWarmF1WithinEpsilonOfScratch(t *testing.T) {
	const n, seed, epsilon = 6, 42, 0.05
	jobs, sims := testJobs(t, trace.DefaultGoogleConfig(seed), n)
	var warmSum, scratchSum float64
	for i := range jobs {
		s, fac := nurdSeed(t, seed, i)
		off, err := simulator.Evaluate(sims[i], fac.New(sims[i], s))
		if err != nil {
			t.Fatal(err)
		}
		spec := SpecFor(sims[i], s)
		spec.RefitMode = wire.RefitWarm
		warm, err := simulator.Evaluate(sims[i], offlineWarmNURD(spec))
		if err != nil {
			t.Fatal(err)
		}
		scratchSum += off.Final.F1()
		warmSum += warm.Final.F1()
	}
	warmAvg, scratchAvg := warmSum/n, scratchSum/n
	if d := math.Abs(warmAvg - scratchAvg); d > epsilon {
		t.Fatalf("warm macro F1 %.4f vs scratch %.4f: |d|=%.4f exceeds epsilon %v",
			warmAvg, scratchAvg, d, epsilon)
	}
	t.Logf("warm macro F1 %.4f, scratch %.4f", warmAvg, scratchAvg)
}

// TestSnapshotRestoreWithPendingRefit cuts a stream immediately after a
// boundary crossing — when a captured view's fit is pending — snapshots,
// restores, and checks the revived server carries the pending refit (same
// generation, PendingRefits 1: the replay crosses the same boundary) and
// converges to the uninterrupted outcome.
func TestSnapshotRestoreWithPendingRefit(t *testing.T) {
	jobs, sims := smallJobs(t, 1, 67)
	job, sim := jobs[0], sims[0]
	s, _ := nurdSeed(t, 67, 0)
	spec := SpecFor(sim, s)
	events := JobEvents(job, sim)

	// Find a cut that lands with a refit pending: ingest event by event and
	// stop at the first point where the report shows a captured-but-
	// unapplied refit.
	build := func() (*Server, int) {
		sv := durable(t, Config{Shards: 1})
		if err := sv.StartJob(spec, nil); err != nil {
			t.Fatal(err)
		}
		for i, e := range events {
			if err := sv.Ingest(e); err != nil {
				t.Fatal(err)
			}
			rep, err := sv.Report(spec.JobID)
			if err != nil {
				t.Fatal(err)
			}
			if rep.PendingRefits == 1 && rep.Generation >= 1 {
				return sv, i + 1
			}
		}
		t.Skip("stream never left a refit pending (degenerate job)")
		return nil, 0
	}
	svB, cut := build()
	var snap bytes.Buffer
	if err := svB.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	repB, err := svB.Report(spec.JobID)
	if err != nil {
		t.Fatal(err)
	}

	svC, err := RestoreServer(bytes.NewReader(snap.Bytes()), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	repC, err := svC.Report(spec.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if repC.Generation != repB.Generation || repC.PendingRefits != 1 {
		t.Fatalf("restored generation=%d pending=%d, want %d/1",
			repC.Generation, repC.PendingRefits, repB.Generation)
	}

	// Reference: an uninterrupted server over the full stream.
	svA := NewServer(Config{Shards: 1})
	if err := svA.StartJob(spec, nil); err != nil {
		t.Fatal(err)
	}
	if err := ingestBatch(svA, events); err != nil {
		t.Fatal(err)
	}
	if err := ingestBatch(svC, events[cut:]); err != nil {
		t.Fatal(err)
	}
	repA, _ := svA.Report(spec.JobID)
	repC, _ = svC.Report(spec.JobID)
	if !reflect.DeepEqual(coreOf(repA), coreOf(repC)) {
		t.Errorf("restored-with-pending outcome diverges:\n uninterrupted %+v\n restored %+v",
			coreOf(repA), coreOf(repC))
	}
	vsA, _ := svA.Query(spec.JobID, allTaskIDs(spec.NumTasks))
	vsC, err := svC.Query(spec.JobID, allTaskIDs(spec.NumTasks))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vsA, vsC) {
		t.Error("final verdicts diverge after restoring with a pending refit")
	}
}

// TestConcurrentRefitsAcrossJobs drives many jobs through a small pool under
// the race detector: fits from different jobs share workers while each job's
// outcome stays identical to its solo offline replay.
func TestConcurrentRefitsAcrossJobs(t *testing.T) {
	const n = 8
	jobs, sims := smallJobs(t, n, 59)
	sv := NewServer(Config{Shards: 2})
	var wg sync.WaitGroup
	for i := range jobs {
		s, _ := nurdSeed(t, 59, i)
		if err := sv.StartJob(SpecFor(sims[i], s), nil); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ingestBatch(sv, JobEvents(jobs[i], sims[i])); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := range jobs {
		s, fac := nurdSeed(t, 59, i)
		off, err := simulator.Evaluate(sims[i], fac.New(sims[i], s))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sv.Report(jobs[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.PredictedAt, off.PredictedAt) {
			t.Errorf("job %d diverged from offline under a shared 1-worker pool", i)
		}
	}
	if st := sv.Stats(); st.RefitLag != 0 || st.RefitQueue != 0 || st.RefitInflight != 0 {
		t.Errorf("pipeline not drained: %+v", st)
	}
}

// panicking panics inside Predict (a hostile or buggy user predictor).
type panicking struct{}

func (p *panicking) Name() string { return "panicking" }
func (p *panicking) Reset()       {}
func (p *panicking) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	panic("synthetic predictor bug")
}

// TestPredictorPanicContained: a predictor that panics on a pool worker must
// not kill the process — the panic converts into the existing fail-the-job
// path, and other jobs keep serving.
func TestPredictorPanicContained(t *testing.T) {
	sv := NewServer(Config{Shards: 1, NewPredictor: func(sp wire.JobSpec) simulator.Predictor {
		if sp.JobID == 1 {
			return &panicking{}
		}
		return &flagAll{}
	}})
	for _, id := range []uint64{1, 2} {
		if err := sv.StartJob(pipelineSpec(id), nil); err != nil {
			t.Fatal(err)
		}
		pipelineWarmup(t, sv, id, 2)
	}
	for _, id := range []uint64{1, 2} {
		for _, tm := range []float64{11, 21, 31} {
			if err := sv.Ingest(wire.Event{Kind: wire.EventHeartbeat, JobID: id, TaskID: 3, Time: tm,
				Features: []float64{3, 1}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := finishJob(sv, id, 100); err != nil {
			t.Fatal(err)
		}
	}
	rep1, err := sv.Report(1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Done || !rep1.Failed {
		t.Errorf("panicking predictor should close its job as failed (done=%v failed=%v)", rep1.Done, rep1.Failed)
	}
	rep2, err := sv.Report(2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Done || rep2.Failed || rep2.Terminated == 0 {
		t.Errorf("shard-mate of a panicking job misbehaved: %+v", rep2)
	}
}

// TestRefitGaugesDropBeforeDelivery: whoever receives a fit's result must
// find the pool's gauges already without it — a drained server's /stats
// reads RefitInflight=0 — and while the fit runs it is counted. The worker
// used to decrement inflight after the send, so the receiver could win the
// race and read 1.
func TestRefitGaugesDropBeforeDelivery(t *testing.T) {
	p := newRefitPool(1)
	cp := &simulator.Checkpoint{}
	for i := 0; i < 2000; i++ {
		ch := make(chan refitResult, 1)
		if !p.enqueue(refitTask{pred: &flagAll{}, cp: cp, ch: ch}) {
			t.Fatal("drained queue refused a fit")
		}
		<-ch
		if q, in := p.depths(); q != 0 || in != 0 {
			t.Fatalf("fit %d delivered with queue=%d inflight=%d still counted", i, q, in)
		}
	}
	gated := &gatedPredictor{gate: make(chan struct{})}
	ch := make(chan refitResult, 1)
	p.enqueue(refitTask{pred: gated, cp: cp, ch: ch})
	for {
		if q, in := p.depths(); q == 0 && in == 1 {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	close(gated.gate)
	<-ch
	if _, in := p.depths(); in != 0 {
		t.Fatalf("gated fit delivered with inflight=%d", in)
	}
}
