package servehttp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/wire"
)

// jobDump encodes n small trace jobs as a wire dump: every job's spec, then
// the jobs' merged, time-ordered event feeds.
func jobDump(t testing.TB, n int, seed uint64) ([]wire.JobSpec, []wire.Event, []byte) {
	t.Helper()
	jobs, sims := servetest.SmallJobs(t, n, seed)
	specs := make([]wire.JobSpec, n)
	streams := make([][]wire.Event, n)
	for i := range jobs {
		specs[i] = serve.SpecFor(sims[i], uint64(100+i))
		streams[i] = serve.JobEvents(jobs[i], sims[i])
	}
	events := serve.MergeStreams(streams...)
	var dump bytes.Buffer
	if err := wire.WriteDump(&dump, specs, events); err != nil {
		t.Fatal(err)
	}
	return specs, events, dump.Bytes()
}

// feedDump applies a dump the in-process way: one Feed, no admission.
func feedDump(sv *serve.Server, dump []byte) (serve.Fed, error) {
	return sv.Feed(wire.NewReader(bytes.NewReader(dump)), nil)
}

// replayInto replays dump into a fresh server with the given shard count and
// requires every element to be applied.
func replayInto(t testing.TB, shards int, specs []wire.JobSpec, events []wire.Event, dump []byte) *serve.Server {
	t.Helper()
	sv := serve.NewServer(serve.Config{Shards: shards})
	st, err := feedDump(sv, dump)
	if err != nil {
		t.Fatal(err)
	}
	if st.Specs != len(specs) || st.Events != len(events) {
		t.Fatalf("replay applied %d specs / %d events, dump holds %d / %d",
			st.Specs, st.Events, len(specs), len(events))
	}
	return sv
}

// sameOutcome requires two servers to hold identical final reports and
// verdicts for every job in specs.
func sameOutcome(t *testing.T, name string, want, got *serve.Server, specs []wire.JobSpec) {
	t.Helper()
	for _, sp := range specs {
		wantR, err := want.Report(sp.JobID)
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := got.Report(sp.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(servetest.CoreOf(wantR), servetest.CoreOf(gotR)) {
			t.Errorf("job %d: %s diverges:\n want %+v\n got  %+v",
				sp.JobID, name, servetest.CoreOf(wantR), servetest.CoreOf(gotR))
		}
		wantV, err := want.Query(sp.JobID, servetest.AllTaskIDs(sp.NumTasks))
		if err != nil {
			t.Fatal(err)
		}
		gotV, err := got.Query(sp.JobID, servetest.AllTaskIDs(sp.NumTasks))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantV, gotV) {
			t.Errorf("job %d: %s verdicts diverge", sp.JobID, name)
		}
	}
}

// TestReplayDeterminism: the serving clock is virtual, so one dump replayed
// into servers of different shard counts, and replayed twice into the same
// shape, yields identical final reports and verdicts.
func TestReplayDeterminism(t *testing.T) {
	specs, events, dump := jobDump(t, 2, 47)
	ref := replayInto(t, 2, specs, events, dump)
	sameOutcome(t, "second 2-shard replay", ref, replayInto(t, 2, specs, events, dump), specs)
	sameOutcome(t, "1-shard replay", ref, replayInto(t, 1, specs, events, dump), specs)
	sameOutcome(t, "7-shard replay", ref, replayInto(t, 7, specs, events, dump), specs)
}

// TestDumpAsIngestBodyMatchesReplay: a dump file is a valid POST /ingest
// body, so a remote server loads one in a single request (curl
// --data-binary @dump.wire .../ingest) and ends exactly where an in-process
// Feed does — the front adds transport, not behavior.
func TestDumpAsIngestBodyMatchesReplay(t *testing.T) {
	specs, events, dump := jobDump(t, 2, 53)
	direct := replayInto(t, 2, specs, events, dump)

	sv := serve.NewServer(serve.Config{Shards: 2})
	ts := httptest.NewServer(NewHandler(sv))
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/ingest", wireContentType, bytes.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	var res IngestResult
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || res.Specs != len(specs) || res.Events != len(events) || res.Shed != 0 {
		t.Fatalf("POST /ingest of the dump: %s %+v, want 200 with %d specs / %d events",
			resp.Status, res, len(specs), len(events))
	}
	sameOutcome(t, "dump POSTed to /ingest", direct, sv, specs)
	if got, want := sv.Stats().Events, direct.Stats().Events; got != want {
		t.Errorf("POST /ingest ingested %d events, in-process replay %d", got, want)
	}
}

// TestReplayErrors: corrupt dumps and protocol violations abort the replay
// with a useful error instead of wedging or panicking.
func TestReplayErrors(t *testing.T) {
	_, events, dump := jobDump(t, 1, 59)

	// Events for a job whose spec frame was dropped: unknown job.
	var noSpec bytes.Buffer
	if err := wire.WriteDump(&noSpec, nil, events); err != nil {
		t.Fatal(err)
	}
	if _, err := feedDump(serve.NewServer(serve.Config{Shards: 1}), noSpec.Bytes()); err == nil {
		t.Error("replay of a dump without specs should fail on the first event")
	}

	// A flipped payload byte: checksum failure.
	mut := append([]byte(nil), dump...)
	mut[len(mut)/2] ^= 0x01
	if _, err := feedDump(serve.NewServer(serve.Config{Shards: 1}), mut); err == nil {
		t.Error("replay of a corrupted dump should fail")
	}
}

// TestPooledReplayMatchesDirectIngest streams a workload with several
// heartbeats per checkpoint interval — so tasks' rows are overwritten
// repeatedly between boundaries while copies of them feed refit history —
// once through Feed, which decodes every event into one buffer its body
// reuses (the name is from the observation pool that path once drew from),
// and once through in-process Ingest with freshly allocated events. Reports
// and verdicts must be identical: reusing buffers moves allocations, never
// bytes.
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
		// Add an extra mid-interval heartbeat for each original one: same
		// task, same tick, slightly later time, perturbed copy of the
		// features. The later observation overwrites the earlier in both
		// servers. The extras are in send order among themselves, so
		// MergeStreams interleaves them with the job's stream.
		var extras []wire.Event
		for _, e := range evs {
			// No extras on the final tick: they would come after the
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
			extras = append(extras, extra)
		}
		streams = append(streams, evs, extras)
	}
	events := serve.MergeStreams(streams...)

	var dump bytes.Buffer
	if err := wire.WriteDump(&dump, specs, events); err != nil {
		t.Fatal(err)
	}
	pooledSv := serve.NewServer(serve.Config{Shards: 2})
	if _, err := feedDump(pooledSv, dump.Bytes()); err != nil {
		t.Fatal(err)
	}

	directSv := serve.NewServer(serve.Config{Shards: 2})
	for _, sp := range specs {
		if err := directSv.StartJob(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Clone the features so the two servers share no memory at all.
	for _, e := range events {
		if e.Features != nil {
			e.Features = append([]float64(nil), e.Features...)
		}
		if err := directSv.Ingest(e); err != nil {
			t.Fatal(err)
		}
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
