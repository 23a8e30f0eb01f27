package cluster_test

// cluster_test.go pins the coordinator tier's headline claim: a cluster is
// a placement layer and nothing else. The same workload, streamed through a
// 3-node cluster and a 1-node server, must produce bit-identical per-job
// verdicts, reports, and macro F1 — the ring decides WHERE a job runs,
// never WHAT its serving run computes. The workload is the `steady`
// scenario, the baseline every perf claim in the repository cites.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/servehttp"
	"repro/internal/simulator"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The cluster must keep satisfying the HTTP front's backend surface: a
// multi-node deployment is NewHandler pointed at a Cluster.
var _ servehttp.Backend = (*cluster.Cluster)(nil)
var _ servehttp.Backend = (*serve.Server)(nil)

// steadyWorkload synthesizes the steady scenario once per test.
func steadyWorkload(t testing.TB) *workload.Workload {
	t.Helper()
	ws, ok := workload.Builtin("steady")
	if !ok {
		t.Fatal("steady scenario missing")
	}
	wl, err := workload.Synthesize(ws)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// feed streams a workload's timeline into a backend in order, ignoring
// send-time pacing (virtual time is carried in the events themselves).
func feed(t testing.TB, b servehttp.Backend, wl *workload.Workload) {
	t.Helper()
	for i := range wl.Items {
		it := &wl.Items[i]
		if it.Spec != nil {
			if err := b.StartJob(*it.Spec, nil); err != nil {
				t.Fatalf("item %d: StartJob(%d): %v", i, it.Spec.JobID, err)
			}
			continue
		}
		if err := b.Ingest(*it.Event); err != nil {
			t.Fatalf("item %d: Ingest(job %d): %v", i, it.Event.JobID, err)
		}
	}
}

// deterministicReport strips wall-clock refit timings from a JobReport.
type deterministicReport struct {
	Spec                          wire.JobSpec
	Done, Failed                  bool
	Checkpoint                    int
	Started, Finished, Terminated int
	Refits, Generation, Pending   int
	PredictedAt                   map[int]int
}

func deterministic(r *serve.JobReport) deterministicReport {
	return deterministicReport{
		Spec: r.Spec, Done: r.Done, Failed: r.Failed, Checkpoint: r.Checkpoint,
		Started: r.Started, Finished: r.Finished, Terminated: r.Terminated,
		Refits: r.Refits, Generation: r.Generation, Pending: r.PendingRefits,
		PredictedAt: r.PredictedAt,
	}
}

// macroF1 averages per-job F1 against the workload's retained ground truth.
func macroF1(t testing.TB, b servehttp.Backend, wl *workload.Workload) float64 {
	t.Helper()
	ids := make([]uint64, 0, len(wl.Truth))
	for id := range wl.Truth {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sum float64
	for _, id := range ids {
		rep, err := b.Report(id)
		if err != nil {
			t.Fatalf("report job %d: %v", id, err)
		}
		sum += rep.Confusion(wl.Truth[id]).F1()
	}
	return sum / float64(len(ids))
}

// TestClusterMatchesSingleNode is the acceptance pin: 3 nodes vs 1 node on
// `steady`, verdicts and macro F1 bit-identical.
func TestClusterMatchesSingleNode(t *testing.T) {
	wl := steadyWorkload(t)
	cfg := serve.Config{Shards: 2}

	single := serve.NewServer(cfg)
	feed(t, single, wl)
	cl := cluster.New(3, cfg)
	feed(t, cl, wl)

	if got, want := len(cl.JobIDs()), wl.Jobs; got != want {
		t.Fatalf("cluster registered %d jobs, workload has %d", got, want)
	}
	if !reflect.DeepEqual(cl.JobIDs(), single.JobIDs()) {
		t.Fatal("cluster and single-node job ID sets diverge")
	}

	for _, id := range single.JobIDs() {
		sr, err := single.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := cl.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(deterministic(sr), deterministic(cr)) {
			t.Fatalf("job %d: reports diverge:\n single  %+v\n cluster %+v",
				id, deterministic(sr), deterministic(cr))
		}
		ids := make([]int, sr.Spec.NumTasks+1)
		for i := range ids {
			ids[i] = i - 1 // one out-of-range probe
		}
		sv, err := single.Query(id, ids)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := cl.Query(id, ids)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sv, cv) {
			t.Fatalf("job %d: verdicts diverge between 1-node and 3-node serving", id)
		}
	}

	sF1, cF1 := macroF1(t, single, wl), macroF1(t, cl, wl)
	if sF1 != cF1 {
		t.Fatalf("macro F1 diverges: single %.17g, cluster %.17g", sF1, cF1)
	}
	if sF1 == 0 {
		t.Fatal("macro F1 is zero — the workload terminated nothing, the pin is vacuous")
	}

	// The aggregate view covers the whole workload: every node contributed.
	st := cl.Stats()
	if st.Jobs != wl.Jobs || st.Events != single.Stats().Events {
		t.Fatalf("aggregate stats: jobs=%d events=%d, single node saw jobs=%d events=%d",
			st.Jobs, st.Events, single.Stats().Jobs, single.Stats().Events)
	}
	for i, ns := range cl.NodeStats() {
		if ns.Jobs == 0 {
			t.Errorf("node %d served zero jobs — the ring left it idle on steady", i)
		}
	}
}

// TestClusterRouting pins placement mechanics: a job's events land on the
// node the ring names — and only there.
func TestClusterRouting(t *testing.T) {
	cfg := serve.Config{Shards: 1, NewPredictor: func(wire.JobSpec) simulator.Predictor { return servetest.Nop{} }}
	cl := cluster.New(4, cfg)
	for id := uint64(1); id <= 40; id++ {
		spec := wire.JobSpec{JobID: id, Schema: []string{"cpu"}, NumTasks: 2,
			TauStra: 10, Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: id}
		if err := cl.StartJob(spec, nil); err != nil {
			t.Fatal(err)
		}
		if err := cl.Ingest(wire.Event{Kind: wire.EventTaskStart, JobID: id, TaskID: 0, Time: 1}); err != nil {
			t.Fatal(err)
		}
	}
	nodes := cl.Nodes()
	for id := uint64(1); id <= 40; id++ {
		owner := cl.NodeFor(id)
		for i, sv := range nodes {
			_, err := sv.Report(id)
			if i == owner && err != nil {
				t.Fatalf("job %d missing from its owner node %d: %v", id, owner, err)
			}
			if i != owner && err == nil {
				t.Fatalf("job %d present on node %d, owner is %d", id, i, owner)
			}
		}
	}
	// Placement is a pure function of cluster size: a second cluster (a
	// "restarted process") routes identically.
	again := cluster.New(4, cfg)
	for id := uint64(1); id <= 40; id++ {
		if cl.NodeFor(id) != again.NodeFor(id) {
			t.Fatalf("job %d: placement changed across ring rebuilds", id)
		}
	}
}

// TestClusterWALRecovery: each node journals to its own WAL directory, and
// a crashed cluster (nothing closed) rebuilt over the same directories
// recovers every node's jobs onto the same nodes with identical verdicts —
// ring stability is what makes per-node logs recoverable.
func TestClusterWALRecovery(t *testing.T) {
	t.Run("per-event", func(t *testing.T) { testClusterWALRecovery(t, false) })
	// The same feed as one POST /ingest body: the front stages every frame
	// on its owning node and the one commit reaches all three logs.
	t.Run("one-body", func(t *testing.T) { testClusterWALRecovery(t, true) })
}

func testClusterWALRecovery(t *testing.T, oneBody bool) {
	fs := waltest.NewMemFS()
	cfg := servetest.CheapConfig(1)
	cl, _, err := cluster.Recover("croot", 3, cfg, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	var specs []wire.JobSpec
	var events []wire.Event
	for id := uint64(1); id <= 12; id++ {
		specs = append(specs, wire.JobSpec{JobID: id, Schema: []string{"cpu"}, NumTasks: 3,
			TauStra: 10, Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: id})
		for task := 0; task < 3; task++ {
			events = append(events, wire.Event{Kind: wire.EventTaskStart, JobID: id, TaskID: task, Time: 1})
		}
		events = append(events, wire.Event{Kind: wire.EventTaskFinish, JobID: id, TaskID: 0, Time: 3, Latency: 2})
	}
	if oneBody {
		var body bytes.Buffer
		if err := wire.WriteDump(&body, specs, events); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		servehttp.NewHandler(cl).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", &body))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /ingest: %d %s", rec.Code, rec.Body)
		}
		// One stream per node: a segment header and one write of records.
		writes := 0
		for _, op := range fs.Journal {
			if op.Kind == waltest.OpWrite {
				writes++
			}
		}
		if writes != 2*cl.NumNodes() {
			t.Errorf("one body over %d nodes cost %d writes, want %d", cl.NumNodes(), writes, 2*cl.NumNodes())
		}
	} else {
		for _, sp := range specs {
			if err := cl.StartJob(sp, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, ev := range events {
			if err := cl.Ingest(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := map[uint64][]serve.TaskVerdict{}
	for _, id := range cl.JobIDs() {
		vs, err := cl.Query(id, []int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		want[id] = vs
	}

	// Crash: no Close, no checkpoint. Recover a fresh cluster over the same
	// directories.
	revived, stats, err := cluster.Recover("croot", 3, cfg, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Close()
	var recovered uint64
	for _, st := range stats {
		recovered += uint64(st.RecordsApplied)
	}
	if want := uint64(len(specs) + len(events)); recovered != want {
		t.Fatalf("recovered %d WAL records of the %d acknowledged — a node's log was not written", recovered, want)
	}
	if got := revived.JobIDs(); len(got) != 12 {
		t.Fatalf("recovered %d jobs, want 12", len(got))
	}
	for id, vs := range want {
		got, err := revived.Query(id, []int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vs, got) {
			t.Fatalf("job %d: verdicts diverge after per-node WAL recovery", id)
		}
		// And the job still lives on the node the ring names.
		if _, err := revived.Nodes()[revived.NodeFor(id)].Report(id); err != nil {
			t.Fatalf("job %d not on its ring node after recovery: %v", id, err)
		}
	}
}
