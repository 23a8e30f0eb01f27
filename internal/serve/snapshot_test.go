package serve

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/nurd"
	"repro/internal/predictor"
	"repro/internal/simulator"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

// durable builds an empty server logging to a write-ahead log on an
// in-memory filesystem: a snapshot is that log's compacted base.
func durable(t testing.TB, cfg Config) *Server {
	t.Helper()
	sv, w, _, err := Recover("wal", cfg, wal.Options{FS: waltest.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return sv
}

// isStraggler answers a single-task query.
func isStraggler(sv *Server, jobID uint64, taskID int) (bool, error) {
	vs, err := sv.Query(jobID, []int{taskID})
	if err != nil {
		return false, err
	}
	return vs[0].Straggler, nil
}

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
// with a refit in flight (replaying the stream leaves the same fit pending
// on the restored server), and warm mode additionally proves the
// extended-ensemble chain replays bit-identically. The restore config
// deliberately omits the mode — the snapshot's specs carry it.
//
// warm_fallback crosses the warm budget: its factory's NURD boosts 2 trees
// and extends by 14, a budget of 16, so a job's third fit falls back to a
// scratch fit. The restore gets the same factory, and some job of the
// never-died server must report that fallback.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	tinyWarm := func(spec wire.JobSpec) simulator.Predictor {
		cfg := nurd.DefaultWarmConfig()
		cfg.GBT.NumTrees, cfg.WarmRounds = 2, 14
		return predictor.NewNURDWith("NURD-warm", cfg, predictor.ConfirmFor(spec.Schema))
	}
	for _, tc := range []struct {
		name         string
		mode         wire.RefitMode
		newPredictor func(wire.JobSpec) simulator.Predictor
	}{
		{"scratch", wire.RefitScratch, nil},
		{"warm", wire.RefitWarm, nil},
		{"warm_fallback", wire.RefitWarm, tinyWarm},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			testSnapshotRestoreEquivalence(t, tc.mode, tc.newPredictor)
		})
	}
}

func testSnapshotRestoreEquivalence(t *testing.T, mode wire.RefitMode, newPredictor func(wire.JobSpec) simulator.Predictor) {
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
	svA := NewServer(Config{Shards: 4, NewPredictor: newPredictor})
	start(svA)
	for i := range streams {
		if err := ingestBatch(svA, streams[i]); err != nil {
			t.Fatal(err)
		}
	}

	// The interrupted run: half the stream, snapshot, crash.
	svB := durable(t, Config{Shards: 4, NewPredictor: newPredictor})
	start(svB)
	for i := range streams {
		if err := ingestBatch(svB, streams[i][:len(streams[i])/2]); err != nil {
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
	svC, err := RestoreServer(bytes.NewReader(snap.Bytes()), Config{Shards: 3, NewPredictor: newPredictor})
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
		if err := ingestBatch(svC, streams[i][len(streams[i])/2:]); err != nil {
			t.Fatal(err)
		}
	}

	fellBack := 0
	for i := range jobs {
		repA, err := svA.Report(specs[i].JobID)
		if err != nil {
			t.Fatal(err)
		}
		repC, err := svC.Report(specs[i].JobID)
		if err != nil {
			t.Fatal(err)
		}
		if repA.ScratchFits >= 2 {
			fellBack++ // in warm mode only the first fit and a budget fallback fit from scratch
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
			sA, err := isStraggler(svA, specs[i].JobID, tid)
			if err != nil {
				t.Fatal(err)
			}
			sC, err := isStraggler(svC, specs[i].JobID, tid)
			if err != nil {
				t.Fatal(err)
			}
			if sA != sC {
				t.Errorf("job %d task %d: IsStraggler %v != %v", i, tid, sA, sC)
			}
		}
	}

	if newPredictor != nil && fellBack == 0 {
		t.Error("no job reports two scratch fits: no warm refit fell back at the budget")
	}

	// Cumulative traffic counters rebuilt by the replay: the restored
	// server's totals equal the uninterrupted server's.
	stA, stC := svA.Stats(), svC.Stats()
	if stA.Events != stC.Events || stA.DroppedEvents != stC.DroppedEvents ||
		stA.Terminations != stC.Terminations || stA.Refits != stC.Refits ||
		stA.Jobs != stC.Jobs || stA.ActiveJobs != stC.ActiveJobs {
		t.Errorf("stats diverge after restore:\n uninterrupted %v\n restored      %v", stA, stC)
	}
}

// TestSnapshotOfFinishedServer covers the simpler durability case: a
// snapshot taken after all streams closed restores to a server whose
// reports and verdicts match, and a durable server that loads it snapshots
// to the same bytes (snapshot-of-restore round-trips).
func TestSnapshotOfFinishedServer(t *testing.T) {
	jobs, sims := smallJobs(t, 2, 37)
	sv := durable(t, Config{Shards: 2})
	for i := range jobs {
		s, _ := nurdSeed(t, 37, i)
		if err := sv.StartJob(SpecFor(sims[i], s), nil); err != nil {
			t.Fatal(err)
		}
		if err := ingestBatch(sv, JobEvents(jobs[i], sims[i])); err != nil {
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
	// The snapshot is itself a durable stream: a logging server that loads
	// it snapshots to the same bytes (no state is lost in the round-trip).
	again := durable(t, Config{Shards: 5})
	if _, err := again.Feed(wire.NewReader(bytes.NewReader(snap1.Bytes())), nil); err != nil {
		t.Fatal(err)
	}
	var snap2 bytes.Buffer
	if err := again.Snapshot(&snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
		t.Errorf("second-generation snapshot: %d bytes differ from the first's %d", snap2.Len(), snap1.Len())
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
	sv := durable(t, Config{Shards: 1})
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
// that restores to a job-less server, and a server without a write-ahead
// log has no snapshot to give (ErrNoWAL).
func TestSnapshotEmptyServer(t *testing.T) {
	if err := NewServer(Config{Shards: 2}).Snapshot(&bytes.Buffer{}); !errors.Is(err, ErrNoWAL) {
		t.Errorf("snapshot without a WAL: %v (want ErrNoWAL)", err)
	}
	var snap bytes.Buffer
	if err := durable(t, Config{Shards: 2}).Snapshot(&snap); err != nil {
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
// snapshots, WAL-only frames, streams no server accepted, and garbage —
// never construct a half-restored server.
func TestRestoreRejectsBadStreams(t *testing.T) {
	jobs, sims := smallJobs(t, 1, 41)
	sv := durable(t, Config{Shards: 1})
	if err := sv.StartJob(SpecFor(sims[0], 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := ingestBatch(sv, JobEvents(jobs[0], sims[0])); err != nil {
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
	var seg wire.Enc
	wire.AppendSegHeaderPayload(&seg, 1, 0)
	segStream := wire.AppendFrame(wire.AppendHeader(nil), wire.FrameSegHeader, seg.B)
	if _, err := RestoreServer(bytes.NewReader(segStream), DefaultConfig()); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("segment header as snapshot: %v (want ErrCorrupt)", err)
	}
	if _, err := RestoreServer(bytes.NewReader([]byte("not a snapshot at all")), DefaultConfig()); !errors.Is(err, wire.ErrBadMagic) {
		t.Errorf("garbage: %v (want ErrBadMagic)", err)
	}

	// An event for a job the stream never registered is not a stream a
	// server accepted.
	var orphan bytes.Buffer
	if err := wire.WriteDump(&orphan, nil, JobEvents(jobs[0], sims[0])[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreServer(bytes.NewReader(orphan.Bytes()), DefaultConfig()); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("event without its spec: %v (want ErrUnknownJob)", err)
	}

	// A heartbeat wider than the schema fails at restore, not checkpoints
	// later as a predictor dimension error.
	spec := SpecFor(sims[0], 1)
	wide := []wire.Event{
		{Kind: wire.EventTaskStart, JobID: spec.JobID, TaskID: 0},
		{Kind: wire.EventHeartbeat, JobID: spec.JobID, TaskID: 0, Time: 1, Tick: 1, Features: make([]float64, len(spec.Schema)+1)},
	}
	var wideDump bytes.Buffer
	if err := wire.WriteDump(&wideDump, []wire.JobSpec{spec}, wide); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreServer(bytes.NewReader(wideDump.Bytes()), DefaultConfig()); err == nil {
		t.Error("schema-mismatched features restored silently")
	}

	// Two copies of the same job in one stream must be rejected.
	doubled := append(append([]byte(nil), snap.Bytes()...), snap.Bytes()[wire.HeaderLen:]...)
	if _, err := RestoreServer(bytes.NewReader(doubled), DefaultConfig()); err == nil {
		t.Error("snapshot with a duplicated job restored silently")
	}
}

// stallingWriter closes entered on its first write and blocks it, and every
// later one, on gate until gate is closed — a stand-in for a stalled GET
// /snapshot client under TCP backpressure.
type stallingWriter struct {
	writes  int
	entered chan struct{}
	gate    chan struct{}
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == 1 {
		close(w.entered)
	}
	<-w.gate
	return len(p), nil
}

// TestSnapshotStalledWriterDoesNotBlockIngest pins the locking discipline of
// Snapshot: it streams the log's base without holding any job lock, so a
// snapshot destination that stalls indefinitely must not block the job's
// ingest path.
func TestSnapshotStalledWriterDoesNotBlockIngest(t *testing.T) {
	jobs, sims := smallJobs(t, 1, 61)
	cfg := Config{Shards: 1, NewPredictor: func(wire.JobSpec) simulator.Predictor { return &flagAll{} }}
	sv := durable(t, cfg)
	events := JobEvents(jobs[0], sims[0])
	if err := sv.StartJob(SpecFor(sims[0], 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := ingestBatch(sv, events[:len(events)/2]); err != nil {
		t.Fatal(err)
	}

	w := &stallingWriter{entered: make(chan struct{}), gate: make(chan struct{})}
	snapDone := make(chan error, 1)
	go func() { snapDone <- sv.Snapshot(w) }()
	<-w.entered // the checkpoint is taken and its base is being streamed

	ingested := make(chan error, 1)
	go func() { ingested <- ingestBatch(sv, events[len(events)/2:]) }()
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
	sv := durable(t, cfg)
	events := JobEvents(jobs[0], sims[0])
	if err := sv.StartJob(SpecFor(sims[0], 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := ingestBatch(sv, events[:len(events)/3]); err != nil {
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
	if err := ingestBatch(restored, events[len(events)/3:]); err != nil {
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
