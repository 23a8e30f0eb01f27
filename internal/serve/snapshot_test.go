package serve

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/simulator"
	"repro/internal/wire"
)

// allTaskIDs returns 0..n-1 plus one out-of-range probe.
func allTaskIDs(n int) []int {
	ids := make([]int, n+1)
	for i := range ids {
		ids[i] = i - 1
	}
	return ids
}

// reportCore strips the wall-clock timing fields from a JobReport, leaving
// exactly the deterministic outcome of a serving run.
type reportCore struct {
	Spec                          wire.JobSpec
	Done, Failed                  bool
	Checkpoint                    int
	Started, Finished, Terminated int
	Refits                        int
	PredictedAt                   map[int]int
}

func coreOf(r *JobReport) reportCore {
	return reportCore{
		Spec: r.Spec, Done: r.Done, Failed: r.Failed, Checkpoint: r.Checkpoint,
		Started: r.Started, Finished: r.Finished, Terminated: r.Terminated,
		Refits: r.Refits, PredictedAt: r.PredictedAt,
	}
}

// TestSnapshotRestoreEquivalence is the crash-recovery claim: drive N jobs
// halfway, snapshot, "kill" the server, restore from the snapshot (at a
// different shard count), finish the streams — and every per-task verdict,
// every per-job terminated set, and every F1 is bit-identical to a server
// that never died. Mid-crash queries are also checked: immediately after
// restore, the revived server answers exactly as the dying one did. Runs in
// both refit modes: the async pipeline makes the halfway cut routinely land
// with a refit in flight (the pending view travels through the snapshot and
// resumes on the restored server), and warm mode additionally proves the
// extended-ensemble chain replays bit-identically from recorded views. The
// restore config deliberately omits the mode — the snapshot's specs carry it.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	for _, mode := range []wire.RefitMode{wire.RefitScratch, wire.RefitWarm} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			testSnapshotRestoreEquivalence(t, mode)
		})
	}
}

func testSnapshotRestoreEquivalence(t *testing.T, mode wire.RefitMode) {
	const n = 3
	jobs, sims := smallJobs(t, n, 31)
	specs := make([]wire.JobSpec, n)
	streams := make([][]wire.Event, n)
	for i := range jobs {
		s, _ := nurdSeed(t, 31, i)
		specs[i] = SpecFor(sims[i], s)
		specs[i].RefitMode = mode
		streams[i] = JobEvents(jobs[i], sims[i])
	}
	start := func(sv *Server) {
		for i := range specs {
			// nil predictor: the default factory builds from the spec, the
			// same construction RestoreServer must repeat on revival.
			if err := sv.StartJob(specs[i], nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The uninterrupted reference.
	svA := NewServer(Config{Shards: 4})
	start(svA)
	for i := range streams {
		if err := svA.IngestBatch(streams[i]); err != nil {
			t.Fatal(err)
		}
	}

	// The interrupted run: half the stream, snapshot, crash.
	svB := NewServer(Config{Shards: 4})
	start(svB)
	for i := range streams {
		if err := svB.IngestBatch(streams[i][:len(streams[i])/2]); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := svB.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// Capture the dying server's answers at the snapshot point.
	midB := make([][]TaskVerdict, n)
	for i := range jobs {
		vs, err := svB.Query(specs[i].JobID, allTaskIDs(specs[i].NumTasks))
		if err != nil {
			t.Fatal(err)
		}
		midB[i] = vs
	}
	svB = nil // the crash

	// Revival — deliberately at a different shard count: shard layout is a
	// concurrency knob, not serving state.
	svC, err := RestoreServer(bytes.NewReader(snap.Bytes()), Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		vs, err := svC.Query(specs[i].JobID, allTaskIDs(specs[i].NumTasks))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vs, midB[i]) {
			t.Errorf("job %d: restored mid-crash verdicts diverge from the dying server's", i)
		}
	}

	// Finish the interrupted streams on the revived server.
	for i := range streams {
		if err := svC.IngestBatch(streams[i][len(streams[i])/2:]); err != nil {
			t.Fatal(err)
		}
	}

	for i := range jobs {
		repA, err := svA.Report(specs[i].JobID)
		if err != nil {
			t.Fatal(err)
		}
		repC, err := svC.Report(specs[i].JobID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(coreOf(repA), coreOf(repC)) {
			t.Errorf("job %d: restored outcome diverges:\n uninterrupted %+v\n restored      %+v",
				i, coreOf(repA), coreOf(repC))
		}
		// Bit-identical F1 against ground truth.
		f1A := repA.Confusion(sims[i].Truth()).F1()
		f1C := repC.Confusion(sims[i].Truth()).F1()
		if f1A != f1C {
			t.Errorf("job %d: F1 %v (uninterrupted) != %v (restored)", i, f1A, f1C)
		}
		// Bit-identical final verdicts, including model-backed predictions.
		vsA, err := svA.Query(specs[i].JobID, allTaskIDs(specs[i].NumTasks))
		if err != nil {
			t.Fatal(err)
		}
		vsC, err := svC.Query(specs[i].JobID, allTaskIDs(specs[i].NumTasks))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vsA, vsC) {
			t.Errorf("job %d: final verdicts diverge after restore", i)
		}
		for _, tid := range []int{0, specs[i].NumTasks - 1} {
			sA, err := svA.IsStraggler(specs[i].JobID, tid)
			if err != nil {
				t.Fatal(err)
			}
			sC, err := svC.IsStraggler(specs[i].JobID, tid)
			if err != nil {
				t.Fatal(err)
			}
			if sA != sC {
				t.Errorf("job %d task %d: IsStraggler %v != %v", i, tid, sA, sC)
			}
		}
	}

	// Cumulative traffic counters carried through the snapshot: the
	// restored server's totals equal the uninterrupted server's.
	stA, stC := svA.Stats(), svC.Stats()
	if stA.Events != stC.Events || stA.DroppedEvents != stC.DroppedEvents ||
		stA.Terminations != stC.Terminations || stA.Refits != stC.Refits ||
		stA.Jobs != stC.Jobs || stA.ActiveJobs != stC.ActiveJobs {
		t.Errorf("stats diverge after restore:\n uninterrupted %v\n restored      %v", stA, stC)
	}
}

// TestSnapshotOfFinishedServer covers the simpler durability case: a
// snapshot taken after all streams closed restores to a server whose
// reports and verdicts match, and which is itself snapshottable again
// (snapshot-of-restore round-trips).
func TestSnapshotOfFinishedServer(t *testing.T) {
	jobs, sims := smallJobs(t, 2, 37)
	sv := NewServer(Config{Shards: 2})
	for i := range jobs {
		s, _ := nurdSeed(t, 37, i)
		if err := sv.StartJob(SpecFor(sims[i], s), nil); err != nil {
			t.Fatal(err)
		}
		if err := sv.IngestBatch(JobEvents(jobs[i], sims[i])); err != nil {
			t.Fatal(err)
		}
	}
	var snap1 bytes.Buffer
	if err := sv.Snapshot(&snap1); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreServer(bytes.NewReader(snap1.Bytes()), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		repA, _ := sv.Report(jobs[i].ID)
		repB, err := restored.Report(jobs[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(coreOf(repA), coreOf(repB)) {
			t.Errorf("job %d: restored report diverges", i)
		}
		vsA, _ := sv.Query(jobs[i].ID, allTaskIDs(jobs[i].NumTasks()))
		vsB, err := restored.Query(jobs[i].ID, allTaskIDs(jobs[i].NumTasks()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vsA, vsB) {
			t.Errorf("job %d: restored verdicts diverge", i)
		}
	}
	// The restored server is itself durable: snapshot it again and the
	// stream restores once more (no state is lost in the round-trip).
	var snap2 bytes.Buffer
	if err := restored.Snapshot(&snap2); err != nil {
		t.Fatal(err)
	}
	again, err := RestoreServer(bytes.NewReader(snap2.Bytes()), Config{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := again.Stats().Events, sv.Stats().Events; got != want {
		t.Errorf("second-generation restore counts %d events, want %d", got, want)
	}
}

// TestRestoreObeysBudget: restored jobs consume registration budget like
// live registrations — a snapshot larger than the restoring config's budget
// is rejected with ErrOverloaded instead of over-committing memory.
func TestRestoreObeysBudget(t *testing.T) {
	_, sims := smallJobs(t, 2, 71)
	sv := NewServer(Config{Shards: 1})
	for i := range sims {
		if err := sv.StartJob(SpecFor(sims[i], uint64(i+1)), nil); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := sv.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreServer(bytes.NewReader(snap.Bytes()), Config{Shards: 1, MaxJobs: 1}); !errors.Is(err, ErrOverloaded) {
		t.Errorf("restore beyond MaxJobs: %v (want ErrOverloaded)", err)
	}
	if _, err := RestoreServer(bytes.NewReader(snap.Bytes()), Config{Shards: 1}); err != nil {
		t.Errorf("restore within the default budget failed: %v", err)
	}
}

// TestSnapshotEmptyServer: a job-less server snapshots to a valid stream
// that restores to a job-less server.
func TestSnapshotEmptyServer(t *testing.T) {
	var snap bytes.Buffer
	if err := NewServer(Config{Shards: 2}).Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Len() == 0 {
		t.Fatal("empty server snapshot produced zero bytes (not a valid stream)")
	}
	restored, err := RestoreServer(bytes.NewReader(snap.Bytes()), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := restored.Stats(); st.Jobs != 0 {
		t.Errorf("restored empty server reports %d jobs", st.Jobs)
	}
}

// TestRestoreRejectsBadStreams: restore must fail loudly on truncated
// snapshots, event streams (the other stream type), and garbage — never
// construct a half-restored server.
func TestRestoreRejectsBadStreams(t *testing.T) {
	jobs, sims := smallJobs(t, 1, 41)
	sv := NewServer(Config{Shards: 1})
	if err := sv.StartJob(SpecFor(sims[0], 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := sv.IngestBatch(JobEvents(jobs[0], sims[0])); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := sv.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	if _, err := RestoreServer(bytes.NewReader(snap.Bytes()[:snap.Len()-3]), DefaultConfig()); !errors.Is(err, wire.ErrTruncated) {
		t.Errorf("truncated snapshot: %v (want ErrTruncated)", err)
	}
	if _, err := RestoreServer(bytes.NewReader(nil), DefaultConfig()); !errors.Is(err, wire.ErrTruncated) {
		t.Errorf("empty stream: %v (want ErrTruncated)", err)
	}
	var dump bytes.Buffer
	if err := wire.WriteDump(&dump, []wire.JobSpec{SpecFor(sims[0], 1)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreServer(bytes.NewReader(dump.Bytes()), DefaultConfig()); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("spec/event stream as snapshot: %v (want ErrCorrupt)", err)
	}
	if _, err := RestoreServer(bytes.NewReader([]byte("not a snapshot at all")), DefaultConfig()); !errors.Is(err, wire.ErrBadMagic) {
		t.Errorf("garbage: %v (want ErrBadMagic)", err)
	}

	// Hostile counters: a snapshot claiming negative terminations must be
	// rejected before it can wrap the shard's unsigned totals.
	hostile := newJobState(SpecFor(sims[0], 1), &flagAll{})
	hostile.terminated = -1
	badSnap, err := appendSnapJobFrame(wire.AppendHeader(nil), hostile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreServer(bytes.NewReader(badSnap), DefaultConfig()); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("negative terminated counter: %v (want ErrCorrupt)", err)
	}

	// A task feature vector wider than the schema must be rejected at
	// restore, not surface checkpoints later as a predictor dimension error.
	wide := newJobState(SpecFor(sims[0], 1), &flagAll{})
	wide.tasks[0].started = true
	wide.tasks[0].features = []float64{1, 2, 3, 4}
	wideSnap, err := appendSnapJobFrame(wire.AppendHeader(nil), wide)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreServer(bytes.NewReader(wideSnap), DefaultConfig()); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("schema-mismatched features: %v (want ErrCorrupt)", err)
	}

	// Restoring the same snapshot twice into one reader sequence works, but
	// two copies of the same job in one stream must be rejected.
	doubled := append(append([]byte(nil), snap.Bytes()...), snap.Bytes()[wire.HeaderLen:]...)
	if _, err := RestoreServer(bytes.NewReader(doubled), DefaultConfig()); err == nil {
		t.Error("snapshot with a duplicated job section restored silently")
	}
}

// stallingWriter accepts its first write (the stream header), closes
// entered on the second, and blocks every later write on gate until it is
// closed — a stand-in for a stalled GET /snapshot client under TCP
// backpressure.
type stallingWriter struct {
	writes  int
	entered chan struct{}
	gate    chan struct{}
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == 2 {
		close(w.entered)
	}
	if w.writes > 1 {
		<-w.gate
	}
	return len(p), nil
}

// TestSnapshotStalledWriterDoesNotBlockIngest pins the locking discipline of
// Snapshot: job sections are buffered under the job lock but written with it
// released, so a snapshot destination that stalls indefinitely must not
// block the job's ingest path.
func TestSnapshotStalledWriterDoesNotBlockIngest(t *testing.T) {
	jobs, sims := smallJobs(t, 1, 61)
	cfg := Config{Shards: 1, NewPredictor: func(wire.JobSpec) simulator.Predictor { return &flagAll{} }}
	sv := NewServer(cfg)
	events := JobEvents(jobs[0], sims[0])
	if err := sv.StartJob(SpecFor(sims[0], 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := sv.IngestBatch(events[:len(events)/2]); err != nil {
		t.Fatal(err)
	}

	w := &stallingWriter{entered: make(chan struct{}), gate: make(chan struct{})}
	snapDone := make(chan error, 1)
	go func() { snapDone <- sv.Snapshot(w) }()
	<-w.entered // the job frame is buffered and the job lock released

	ingested := make(chan error, 1)
	go func() { ingested <- sv.IngestBatch(events[len(events)/2:]) }()
	select {
	case err := <-ingested:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ingest blocked while a snapshot write was stalled")
	}
	close(w.gate)
	if err := <-snapDone; err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotMidStreamIsIngestable: after restore, the revived server
// accepts the rest of the stream through the normal ingest path, firing the
// remaining checkpoints (covered in depth by the equivalence test; this
// pins the basic liveness property for a single job with the cheap
// flag-all predictor via a custom factory).
func TestSnapshotMidStreamIsIngestable(t *testing.T) {
	jobs, sims := smallJobs(t, 1, 43)
	cfg := Config{Shards: 1, NewPredictor: func(wire.JobSpec) simulator.Predictor { return &flagAll{} }}
	sv := NewServer(cfg)
	events := JobEvents(jobs[0], sims[0])
	if err := sv.StartJob(SpecFor(sims[0], 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := sv.IngestBatch(events[:len(events)/3]); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := sv.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreServer(bytes.NewReader(snap.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.IngestBatch(events[len(events)/3:]); err != nil {
		t.Fatal(err)
	}
	rep, err := restored.Report(jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Done || rep.Checkpoint != sims[0].Cfg.Checkpoints {
		t.Errorf("restored job did not finish its schedule: done=%v checkpoint=%d", rep.Done, rep.Checkpoint)
	}
}
