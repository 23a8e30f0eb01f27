package servehttp

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/wire"
)

// scaledWorkload shrinks a real trace job's virtual timeline by factor c so
// that real-time (1x) replay completes in test time: every timestamp,
// latency, horizon, and latency threshold scales together, which preserves
// the protocol structure exactly (checkpoint gating, straggler sets,
// feature vectors are untouched).
func scaledWorkload(t testing.TB, n int, seed uint64, c float64) ([]wire.JobSpec, []wire.Event) {
	t.Helper()
	jobs, sims := servetest.SmallJobs(t, n, seed)
	specs := make([]wire.JobSpec, n)
	streams := make([][]wire.Event, n)
	for i := range jobs {
		sp := serve.SpecFor(sims[i], uint64(100+i))
		sp.TauStra *= c
		sp.Horizon *= c
		specs[i] = sp
		evs := serve.JobEvents(jobs[i], sims[i])
		scaled := make([]wire.Event, len(evs))
		for k, e := range evs {
			e.Time *= c
			e.Latency *= c
			scaled[k] = e
		}
		streams[i] = scaled
	}
	return specs, serve.MergeStreams(streams...)
}

func replayDump(t testing.TB, specs []wire.JobSpec, events []wire.Event, speedup float64) *serve.Server {
	t.Helper()
	var dump bytes.Buffer
	if err := wire.WriteDump(&dump, specs, events); err != nil {
		t.Fatal(err)
	}
	sv := serve.NewServer(serve.Config{Shards: 2})
	st, err := Replay(sv, bytes.NewReader(dump.Bytes()), speedup)
	if err != nil {
		t.Fatal(err)
	}
	if st.Specs != len(specs) || st.Events != len(events) {
		t.Fatalf("replay applied %d specs / %d events, dump holds %d / %d",
			st.Specs, st.Events, len(specs), len(events))
	}
	return sv
}

// TestReplayDeterminism is the pacing-independence claim: the serving clock
// is virtual, so the same dump replayed in real time (1x) and at 1000x
// yields identical final JobReports — speedup moves wall-clock pacing only,
// never outcomes.
func TestReplayDeterminism(t *testing.T) {
	// ~60ms of virtual time per job at 1x.
	specs, events := scaledWorkload(t, 2, 47, 0.0005)
	servers := map[string]*serve.Server{}
	for name, speedup := range map[string]float64{"1x": 1, "1000x": 1000, "unthrottled": 0} {
		servers[name] = replayDump(t, specs, events, speedup)
	}
	ref := servers["1x"]
	for name, sv := range servers {
		if name == "1x" {
			continue
		}
		for _, sp := range specs {
			want, err := ref.Report(sp.JobID)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sv.Report(sp.JobID)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(servetest.CoreOf(want), servetest.CoreOf(got)) {
				t.Errorf("job %d: %s replay diverges from 1x:\n 1x  %+v\n %s %+v",
					sp.JobID, name, servetest.CoreOf(want), name, servetest.CoreOf(got))
			}
			wantV, err := ref.Query(sp.JobID, servetest.AllTaskIDs(sp.NumTasks))
			if err != nil {
				t.Fatal(err)
			}
			gotV, err := sv.Query(sp.JobID, servetest.AllTaskIDs(sp.NumTasks))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantV, gotV) {
				t.Errorf("job %d: %s replay verdicts diverge from 1x", sp.JobID, name)
			}
		}
	}
}

// TestReplayHTTPMatchesInProcess streams one dump twice — once through
// in-process Ingest calls, once through POST /ingest batches against a live
// front end — and requires identical outcomes: the HTTP wire path adds
// transport, not behavior.
func TestReplayHTTPMatchesInProcess(t *testing.T) {
	specs, events := scaledWorkload(t, 2, 53, 0.0005)
	direct := replayDump(t, specs, events, 0)

	var dump bytes.Buffer
	if err := wire.WriteDump(&dump, specs, events); err != nil {
		t.Fatal(err)
	}
	sv := serve.NewServer(serve.Config{Shards: 2})
	ts := httptest.NewServer(NewHandler(sv))
	defer ts.Close()
	// Small batches force many requests; a tiny speedup exercises the
	// flush-before-sleep path as well.
	st, err := ReplayHTTP(ts.Client(), ts.URL, bytes.NewReader(dump.Bytes()), 1000, 257)
	if err != nil {
		t.Fatal(err)
	}
	if st.Specs != len(specs) || st.Events != len(events) {
		t.Fatalf("http replay applied %d/%d, want %d/%d", st.Specs, st.Events, len(specs), len(events))
	}
	for _, sp := range specs {
		want, err := direct.Report(sp.JobID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sv.Report(sp.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(servetest.CoreOf(want), servetest.CoreOf(got)) {
			t.Errorf("job %d: http replay diverges from in-process replay", sp.JobID)
		}
	}
	if got, want := sv.Stats().Events, direct.Stats().Events; got != want {
		t.Errorf("http replay ingested %d events, in-process %d", got, want)
	}
}

// TestReplayErrors: corrupt dumps and protocol violations abort the replay
// with a useful error instead of wedging or panicking.
func TestReplayErrors(t *testing.T) {
	specs, events := scaledWorkload(t, 1, 59, 0.001)
	var dump bytes.Buffer
	if err := wire.WriteDump(&dump, specs, events); err != nil {
		t.Fatal(err)
	}

	// Events for a job whose spec frame was dropped: unknown job.
	var noSpec bytes.Buffer
	if err := wire.WriteDump(&noSpec, nil, events); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(serve.NewServer(serve.Config{Shards: 1}), bytes.NewReader(noSpec.Bytes()), 0); err == nil {
		t.Error("replay of a dump without specs should fail on the first event")
	}

	// A flipped payload byte: checksum failure.
	mut := append([]byte(nil), dump.Bytes()...)
	mut[len(mut)/2] ^= 0x01
	if _, err := Replay(serve.NewServer(serve.Config{Shards: 1}), bytes.NewReader(mut), 0); err == nil {
		t.Error("replay of a corrupted dump should fail")
	}

	// ReplayHTTP against a front end returning errors must surface them.
	sv := serve.NewServer(serve.Config{Shards: 1})
	ts := httptest.NewServer(NewHandler(sv))
	defer ts.Close()
	if _, err := ReplayHTTP(ts.Client(), ts.URL, bytes.NewReader(noSpec.Bytes()), 0, 64); err == nil {
		t.Error("http replay of a spec-less dump should fail")
	}
}

// TestReplayHTTPStatsOnFlushFailure: ReplayStats count only elements whose
// batch the front end acknowledged — a failed flush must not fold its queued
// elements into the totals.
func TestReplayHTTPStatsOnFlushFailure(t *testing.T) {
	specs, events := scaledWorkload(t, 1, 67, 0.001)
	var dump bytes.Buffer
	if err := wire.WriteDump(&dump, specs, events); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "synthetic outage", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	st, err := ReplayHTTP(ts.Client(), ts.URL, bytes.NewReader(dump.Bytes()), 0, 8)
	if err == nil {
		t.Fatal("replay against a failing front end should error")
	}
	if st.Specs != 0 || st.Events != 0 {
		t.Errorf("stats count unacknowledged elements: %d specs, %d events", st.Specs, st.Events)
	}
}

// TestReplayPacingSchedule is the pacing-drift regression: the pacer derives
// every due time from one fixed origin, so per-event sleep overshoot must not
// accumulate. A chained relative-sleep implementation (sleep the inter-event
// gap, each sleep overshooting by the timer granularity) fails this test —
// with hundreds of events, milliseconds of per-event overshoot stack into a
// wall time far past the schedule; the absolute schedule self-corrects.
func TestReplayPacingSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("paced replay sleeps on the wall clock")
	}
	specs, events := scaledWorkload(t, 2, 47, 0.0005)
	var dump bytes.Buffer
	if err := wire.WriteDump(&dump, specs, events); err != nil {
		t.Fatal(err)
	}
	span := events[len(events)-1].Time - events[0].Time
	// Pick the speedup so the schedule spans ~400ms of wall clock.
	speedup := span / 0.4
	sv := serve.NewServer(serve.Config{Shards: 2})
	st, err := Replay(sv, bytes.NewReader(dump.Bytes()), speedup)
	if err != nil {
		t.Fatal(err)
	}
	want := time.Duration(span / speedup * float64(time.Second))
	// The last event is due exactly at `want`; the 1ms scheduling tolerance
	// lets the replay land slightly early. Drift shows up as overshoot, so
	// the upper bound is the one doing the regression work: per-event sleep
	// overshoot of even 0.5ms across len(events) paced events would blow
	// well past 25% of the schedule.
	if st.Wall < want-50*time.Millisecond {
		t.Errorf("paced replay finished in %v, schedule spans %v", st.Wall, want)
	}
	if lim := want + want/4 + 100*time.Millisecond; st.Wall > lim {
		t.Errorf("paced replay took %v for a %v schedule (%d events): pacing drift", st.Wall, want, len(events))
	}
	if st.MaxLag < 0 {
		t.Errorf("MaxLag = %v, want >= 0", st.MaxLag)
	}

	// Unpaced replay never engages the schedule: no lag is recorded.
	st0, err := Replay(serve.NewServer(serve.Config{Shards: 2}), bytes.NewReader(dump.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st0.MaxLag != 0 {
		t.Errorf("unpaced replay recorded MaxLag %v, want 0", st0.MaxLag)
	}
}

// TestReplayStatsRate pins the Rate guard: empty dumps, single-event dumps,
// and degenerate wall times must yield a finite rate — never Inf or NaN.
func TestReplayStatsRate(t *testing.T) {
	// Constructed degenerate stats.
	for _, tc := range []struct {
		st   ReplayStats
		want float64
	}{
		{ReplayStats{Events: 10, Wall: 0}, 0},
		{ReplayStats{Events: 10, Wall: -time.Second}, 0},
		{ReplayStats{Events: 0, Wall: time.Second}, 0},
		{ReplayStats{Events: 10, Wall: 2 * time.Second}, 5},
	} {
		got := tc.st.Rate()
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("Rate(%+v) = %v: not finite", tc.st, got)
		}
		if got != tc.want {
			t.Errorf("Rate(%+v) = %v, want %v", tc.st, got, tc.want)
		}
	}

	// An empty dump (header only) replays to zero events in ~zero wall time.
	var empty bytes.Buffer
	if err := wire.WriteDump(&empty, nil, nil); err != nil {
		t.Fatal(err)
	}
	st, err := Replay(serve.NewServer(serve.Config{Shards: 1}), bytes.NewReader(empty.Bytes()), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r := st.Rate(); r != 0 || math.IsNaN(r) {
		t.Errorf("empty dump Rate() = %v, want 0", r)
	}

	// A single-event dump: one spec, the stream's first event.
	specs, events := scaledWorkload(t, 1, 59, 0.001)
	var one bytes.Buffer
	if err := wire.WriteDump(&one, specs, events[:1]); err != nil {
		t.Fatal(err)
	}
	st, err = Replay(serve.NewServer(serve.Config{Shards: 1}), bytes.NewReader(one.Bytes()), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 1 {
		t.Fatalf("single-event dump applied %d events", st.Events)
	}
	if r := st.Rate(); math.IsInf(r, 0) || math.IsNaN(r) || r < 0 {
		t.Errorf("single-event dump Rate() = %v: not a finite non-negative rate", r)
	}
}

// TestPooledReplayMatchesDirectIngest streams a workload with several
// heartbeats per checkpoint interval — so tasks' current observations are
// repeatedly replaced between boundaries, exercising recycle-on-replace of
// never-captured slices while captured ones feed refit history — once
// through the pooled Replay path and once through in-process IngestBatch
// with freshly allocated events. Reports and verdicts must be identical:
// pooling moves allocations, never bytes.
func TestPooledReplayMatchesDirectIngest(t *testing.T) {
	jobs, sims := servetest.SmallJobs(t, 2, 137)
	var specs []wire.JobSpec
	var streams [][]wire.Event
	for i := range jobs {
		sp := serve.SpecFor(sims[i], uint64(700+i))
		specs = append(specs, sp)
		evs := serve.JobEvents(jobs[i], sims[i])
		for k := range evs {
			evs[k].JobID = sp.JobID
		}
		// Interleave an extra mid-interval heartbeat after each original
		// one: same task, same tick, slightly later time, perturbed copy of
		// the features. The later observation replaces the earlier in both
		// servers; only the pooled server recycles the replaced slice.
		var dense []wire.Event
		for _, e := range evs {
			dense = append(dense, e)
			// No extras on the final tick: they would sort after the
			// job-finish event, which rejects the stream.
			if e.Kind != wire.EventHeartbeat || e.Features == nil || e.Tick >= sp.Checkpoints {
				continue
			}
			extra := e
			extra.Time += 1e-9
			extra.Features = append([]float64(nil), e.Features...)
			for j := range extra.Features {
				extra.Features[j] *= 1.0000001
			}
			dense = append(dense, extra)
		}
		streams = append(streams, dense)
	}
	events := serve.MergeStreams(streams...)

	var dump bytes.Buffer
	if err := wire.WriteDump(&dump, specs, events); err != nil {
		t.Fatal(err)
	}
	pooledSv := serve.NewServer(serve.Config{Shards: 2})
	if _, err := Replay(pooledSv, bytes.NewReader(dump.Bytes()), 0); err != nil {
		t.Fatal(err)
	}

	directSv := serve.NewServer(serve.Config{Shards: 2})
	for _, sp := range specs {
		if err := directSv.StartJob(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	// IngestBatch events carry caller-allocated slices (pooled tag unset);
	// clone the features so the two servers share no memory at all.
	fresh := make([]wire.Event, len(events))
	for i, e := range events {
		if e.Features != nil {
			e.Features = append([]float64(nil), e.Features...)
		}
		fresh[i] = e
	}
	if err := directSv.IngestBatch(fresh); err != nil {
		t.Fatal(err)
	}

	for _, sp := range specs {
		want, err := directSv.Report(sp.JobID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pooledSv.Report(sp.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(servetest.CoreOf(want), servetest.CoreOf(got)) {
			t.Fatalf("job %d: pooled replay diverges from direct ingest:\n direct %+v\n pooled %+v",
				sp.JobID, servetest.CoreOf(want), servetest.CoreOf(got))
		}
		wantV, err := directSv.Query(sp.JobID, servetest.AllTaskIDs(sp.NumTasks))
		if err != nil {
			t.Fatal(err)
		}
		gotV, err := pooledSv.Query(sp.JobID, servetest.AllTaskIDs(sp.NumTasks))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantV, gotV) {
			t.Fatalf("job %d: pooled replay verdicts diverge from direct ingest", sp.JobID)
		}
	}
}
