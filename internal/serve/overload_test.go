package serve

// overload_test.go pins the overload-control contracts from overload.go:
// the shedding priority order (heartbeats shed, label-bearing events wait,
// finishes never shed), the no-WAL-trace property that keeps recovery
// equivalence intact under shedding, the refit-queue inline fallback,
// degraded queries (staleness flags, and their survival across
// snapshot/restore and WAL recovery), and the load-derived retry hint.
// The HTTP-visible halves of the taxonomy — per-client rate limiting and
// the two Retry-After classes — are pinned by the servehttp test suite.

import (
	"bytes"
	"errors"
	"reflect"
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
// carries a ground-truth label — waits for a slot instead. ShedFinishes
// must stay zero: the counter exists to make the invariant observable.
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
	if over.ShedHeartbeats != 1 || over.ShedFinishes != 0 || over.IngestWaits != 1 {
		t.Fatalf("taxonomy: shed_hb=%d shed_finish=%d waits=%d, want 1/0/1",
			over.ShedHeartbeats, over.ShedFinishes, over.IngestWaits)
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

// TestRefitQueueSaturationInline: when the refit queue is at its bound, the
// overflow fit runs inline on the ingesting goroutine (counted) and its
// result still lands at the next boundary crossing, exactly like a pooled
// fit.
func TestRefitQueueSaturationInline(t *testing.T) {
	gate1 := make(chan struct{})
	closed := make(chan struct{})
	close(closed)
	cfg := Config{Shards: 1, RefitQueue: 1,
		NewPredictor: func(sp wire.JobSpec) simulator.Predictor {
			if sp.JobID <= refitWorkers {
				return &gatedPredictor{gate: gate1} // stalls a worker
			}
			return &gatedPredictor{gate: closed} // instant
		}}
	sv := NewServer(cfg)
	for id := uint64(1); id <= refitWorkers+2; id++ {
		if err := sv.StartJob(pipelineSpec(id), nil); err != nil {
			t.Fatal(err)
		}
		pipelineWarmup(t, sv, id, 2)
	}
	pool := sv.reg.shardFor(1).pool
	cross := func(id uint64, tm float64) {
		t.Helper()
		if err := sv.Ingest(wire.Event{Kind: wire.EventHeartbeat, JobID: id, TaskID: 2, Time: tm,
			Features: []float64{2, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	// Jobs 1 and 2 cross their first boundary: their fits start on the
	// shard's two workers and stall on the gate. Each must be executing
	// (not queued) before the next crossing, or it would fill the queue.
	for id := uint64(1); id <= refitWorkers; id++ {
		cross(id, 11)
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
	// Job 3's fit queues behind them (bound 1: the queue is now full); job
	// 4's enqueue is refused and the fit runs inline, synchronously, on
	// this goroutine.
	queued, inline := uint64(refitWorkers+1), uint64(refitWorkers+2)
	cross(queued, 11)
	cross(inline, 11)
	if got := sv.Stats().Overload.InlineRefits; got != 1 {
		t.Fatalf("inline_refits=%d after a saturated enqueue, want 1", got)
	}
	// The inline fit's outcome applies at job 4's next boundary, exactly
	// like a pooled one.
	cross(inline, 21)
	rep, err := sv.Report(inline)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 1 {
		t.Fatalf("job %d generation=%d after its inline fit applied, want 1", inline, rep.Generation)
	}
	close(gate1) // release the stalled workers before the server drains
}

// degradedServer builds a 1-shard server with degraded queries enabled and
// one fully closed job (the close refreshes the stale view), logging to a
// write-ahead log so it can be snapshotted.
func degradedServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	sv := durable(t, cfg)
	if err := sv.StartJob(pipelineSpec(1), nil); err != nil {
		t.Fatal(err)
	}
	pipelineWarmup(t, sv, 1, 2)
	if err := sv.Ingest(wire.Event{Kind: wire.EventJobFinish, JobID: 1, Time: 100}); err != nil {
		t.Fatal(err)
	}
	return sv
}

// jobOf fetches a job's state for white-box lock holding.
func jobOf(sv *Server, id uint64) *jobState {
	j, _ := sv.reg.shardFor(id).lookup(id)
	return j
}

// stripStale clears the degraded-path markers so content can be compared
// against a live answer.
func stripStale(vs []TaskVerdict) []TaskVerdict {
	out := make([]TaskVerdict, len(vs))
	copy(out, vs)
	for i := range out {
		out[i].Stale, out[i].AsOfCheckpoint = false, 0
	}
	return out
}

// TestDegradedQueryServesStale: with the job lock held past DegradedAfter,
// queries answer from the last published view — every verdict flagged
// Stale with its AsOfCheckpoint — instead of waiting, and the content
// matches what a live query reports once the lock frees.
func TestDegradedQueryServesStale(t *testing.T) {
	sv := degradedServer(t, Config{Shards: 1, DegradedAfter: time.Millisecond})
	j := jobOf(sv, 1)
	j.mu.Lock()
	probe := []int{0, 1, 5, 99} // 99 is out of range: still answered, still stale
	stale, err := sv.Query(1, probe)
	if err != nil {
		j.mu.Unlock()
		t.Fatal(err)
	}
	j.mu.Unlock()
	for i, v := range stale {
		if !v.Stale {
			t.Fatalf("verdict %d under a held lock is not stale: %+v", i, v)
		}
		if v.AsOfCheckpoint != pipelineSpec(1).Checkpoints {
			t.Fatalf("verdict %d stale as of checkpoint %d, want %d (job closed)",
				i, v.AsOfCheckpoint, pipelineSpec(1).Checkpoints)
		}
	}
	if got := sv.Stats().Overload.DegradedQueries; got != uint64(len(probe)) {
		t.Fatalf("degraded=%d, want %d", got, len(probe))
	}
	live, err := sv.Query(1, probe)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range live {
		if v.Stale {
			t.Fatalf("verdict with a free lock is stale: %+v", v)
		}
	}
	if !reflect.DeepEqual(stripStale(stale), live) {
		t.Fatalf("stale content differs from live:\n stale %+v\n  live %+v", stale, live)
	}
}

// TestQueryAppendReusedDstDoesNotAliasStaleView: the degraded arm copies
// verdicts out of the published view into the caller's slab, so a caller
// that scribbles over its reused dst (the HTTP front clears its slab before
// pooling it) cannot change what the next degraded query answers.
func TestQueryAppendReusedDstDoesNotAliasStaleView(t *testing.T) {
	sv := degradedServer(t, Config{Shards: 1, DegradedAfter: time.Millisecond})
	j := jobOf(sv, 1)
	j.mu.Lock()
	defer j.mu.Unlock()
	probe := []int{0, 1, 5, 99}
	dst, err := sv.QueryAppend(make([]TaskVerdict, 0, 2), 1, probe) // grows past its capacity
	if err != nil {
		t.Fatal(err)
	}
	want := append([]TaskVerdict(nil), dst...)
	for i := range dst {
		if !dst[i].Stale {
			t.Fatalf("verdict %d under a held lock is not stale: %+v", i, dst[i])
		}
		dst[i] = TaskVerdict{TaskID: -7, Known: !dst[i].Known, AsOfCheckpoint: -1}
	}
	got, err := sv.QueryAppend(dst[:0], 1, probe)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] {
		t.Error("QueryAppend reallocated a dst that had room")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("degraded answer changed after the caller mutated its dst:\n want %+v\n  got %+v", want, got)
	}
	// Appending keeps what the caller already holds.
	both, err := sv.QueryAppend(got, 1, probe[:2])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(both, append(append([]TaskVerdict(nil), want...), want[:2]...)) {
		t.Fatalf("QueryAppend onto a non-empty dst: %+v", both)
	}
}

// TestStaleViewSurvivesSnapshotRestore: the degraded-query view is never
// serialized — a restored server rebuilds it by replaying the stream, so
// degraded answers (staleness flags included) survive snapshot/restore.
func TestStaleViewSurvivesSnapshotRestore(t *testing.T) {
	cfg := Config{Shards: 1, DegradedAfter: time.Millisecond}
	sv := degradedServer(t, cfg)
	var snap bytes.Buffer
	if err := sv.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreServer(bytes.NewReader(snap.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := []int{0, 1, 5}
	j := jobOf(sv, 1)
	j.mu.Lock()
	want, err := sv.Query(1, probe)
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	rj := jobOf(restored, 1)
	rj.mu.Lock()
	got, err := restored.Query(1, probe)
	rj.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("degraded answers diverge after restore:\n want %+v\n  got %+v", want, got)
	}
}

// TestStaleViewSurvivesWALRecovery: same property through a crash — the
// recovered server serves the same flagged-stale answers under lock
// contention as the one that died.
func TestStaleViewSurvivesWALRecovery(t *testing.T) {
	fs := waltest.NewMemFS()
	cfg := cheapCfg(1)
	cfg.DegradedAfter = time.Millisecond
	sv, _, _, err := Recover("wal", cfg, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	spec := wire.JobSpec{JobID: 1, Schema: []string{"cpu"}, NumTasks: 4, TauStra: 10,
		Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: 1}
	if err := sv.StartJob(spec, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := sv.Ingest(wire.Event{Kind: wire.EventTaskStart, JobID: 1, TaskID: i, Time: 0}); err != nil {
			t.Fatal(err)
		}
		if err := sv.Ingest(wire.Event{Kind: wire.EventHeartbeat, JobID: 1, TaskID: i, Time: 1, Features: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.Ingest(wire.Event{Kind: wire.EventJobFinish, JobID: 1, Time: 100}); err != nil {
		t.Fatal(err)
	}
	probe := []int{0, 1, 2, 3}
	j := jobOf(sv, 1)
	j.mu.Lock()
	want, err := sv.Query(1, probe)
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	revived, wal2, _, err := Recover("wal", cfg, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	rj := jobOf(revived, 1)
	rj.mu.Lock()
	got, err := revived.Query(1, probe)
	rj.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if !v.Stale {
			t.Fatalf("recovered degraded answer not flagged stale: %+v", v)
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("degraded answers diverge after recovery:\n want %+v\n  got %+v", want, got)
	}
}

// TestRetryHintTracksLoad: the 429 hint grows with queue occupancy — 1s on
// an idle server, MaxRetryHintSeconds when a queue is at its bound.
func TestRetryHintTracksLoad(t *testing.T) {
	sv := NewServer(Config{Shards: 1, IngestQueue: 2})
	if got := sv.RetryHint(); got != 1 {
		t.Fatalf("idle hint %d, want 1", got)
	}
	s := sv.reg.shardFor(1)
	occupy(s)
	occupy(s)
	if got := sv.RetryHint(); got != MaxRetryHintSeconds {
		t.Fatalf("full-queue hint %d, want %d", got, MaxRetryHintSeconds)
	}
	free(s)
	if got := sv.RetryHint(); got <= 1 || got >= MaxRetryHintSeconds {
		t.Fatalf("half-queue hint %d, want strictly between 1 and %d", got, MaxRetryHintSeconds)
	}
	free(s)
}

// TestNonPositiveBoundsMeanDefault: a bound below 1 — zero or negative —
// resolves to its default, in the resolved Config and in /stats. A
// negative queue bound once switched shedding off silently and reported a
// bound of 0.
func TestNonPositiveBoundsMeanDefault(t *testing.T) {
	for _, v := range []int{0, -1} {
		sv := NewServer(Config{Shards: 1, IngestQueue: v, RefitQueue: v, MaxJobs: v, MaxTasks: v})
		cfg := sv.Config()
		if cfg.IngestQueue != DefaultIngestQueue || cfg.RefitQueue != DefaultRefitQueue ||
			cfg.MaxJobs != DefaultMaxJobs || cfg.MaxTasks != DefaultMaxTasks {
			t.Errorf("bounds %d: resolved ingest=%d refit=%d jobs=%d tasks=%d, want %d/%d/%d/%d", v,
				cfg.IngestQueue, cfg.RefitQueue, cfg.MaxJobs, cfg.MaxTasks,
				DefaultIngestQueue, DefaultRefitQueue, DefaultMaxJobs, DefaultMaxTasks)
		}
		over := sv.Stats().Overload
		if over.IngestQueueBound != DefaultIngestQueue || over.RefitQueueBound != DefaultRefitQueue {
			t.Errorf("bounds %d: stats report ingest=%d refit=%d, want %d/%d", v,
				over.IngestQueueBound, over.RefitQueueBound, DefaultIngestQueue, DefaultRefitQueue)
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
