package servehttp

// overload_http_test.go pins the HTTP-visible halves of the overload-control
// taxonomy (see serve/overload.go): per-client token-bucket rate limiting
// and the Retry-After hints — a rate-limit 429's bucket refill wait, and a
// durability-outage 503's fixed operator-timescale constant (the budget
// 429's fixed hint is TestHTTP429RetryAfter's). The in-process halves (shedding order, WAL-trace absence,
// the refit queue's one view per job) live with package serve's own tests.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

// ingestAs posts a wire batch under a client identity.
func ingestAs(t *testing.T, ts *httptest.Server, client string, body io.Reader) (*http.Response, IngestResult) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wireContentType)
	req.Header.Set("X-Nurd-Client", client)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding %s body: %v", resp.Status, err)
	}
	return resp, res
}

// TestRateLimitPerClient pins the token-bucket contract: refusal is atomic
// at request start (429, NOTHING applied, Retry-After the bucket's refill
// wait in 1..10),
// mid-batch an empty bucket sheds only heartbeats, other frames run the
// bucket into debt, and clients are limited independently.
func TestRateLimitPerClient(t *testing.T) {
	// Rate 2/s, so burst 2×rate = 4 tokens.
	sv := serve.NewServer(serve.Config{Shards: 1, ClientRate: 2})
	ts := httptest.NewServer(NewHandler(sv))
	defer ts.Close()

	spec := servetest.PipelineSpec(1)
	var events []wire.Event
	for i := 0; i < spec.NumTasks; i++ {
		events = append(events, wire.Event{Kind: wire.EventTaskStart, JobID: 1, TaskID: i, Time: 0})
	}
	for k := 0; k < 3; k++ {
		for i := 0; i < spec.NumTasks; i++ {
			events = append(events, wire.Event{Kind: wire.EventHeartbeat, JobID: 1, TaskID: i,
				Time: float64(k + 1), Features: []float64{float64(i), 1}})
		}
	}
	// Burst 4 cannot cover 1 spec + 8 starts + 24 heartbeats: the spec and
	// every start are non-sheddable (debt of 5 tokens, 3 s of refill), the
	// heartbeats past the budget are shed mid-batch.
	resp, res := ingestAs(t, ts, "a", wireBody(t, []wire.JobSpec{spec}, events))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %s (%s)", resp.Status, res.Error)
	}
	if res.Specs != 1 || res.Events != spec.NumTasks {
		t.Fatalf("specs=%d events=%d, want 1/%d (starts are never shed)", res.Specs, res.Events, spec.NumTasks)
	}
	if res.Shed < 20 {
		t.Fatalf("shed=%d heartbeats mid-batch, want >=20 (burst 4)", res.Shed)
	}

	// The bucket is now deep in debt: the next request is refused
	// atomically with the bucket's refill wait as its hint.
	resp, res = ingestAs(t, ts, "a", wireBody(t, nil, []wire.Event{
		{Kind: wire.EventTaskFinish, JobID: 1, TaskID: 0, Time: 5, Latency: 5}}))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget client: %s, want 429", resp.Status)
	}
	if res.Specs != 0 || res.Events != 0 || res.Shed != 0 {
		t.Fatalf("429 applied something: %+v (refusal must be atomic)", res)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > maxRetryAfterSeconds {
		t.Fatalf("429 Retry-After %q, want integer in [1,%d]", resp.Header.Get("Retry-After"), maxRetryAfterSeconds)
	}

	// A different client has its own bucket.
	resp, res = ingestAs(t, ts, "b", wireBody(t, nil, []wire.Event{
		{Kind: wire.EventTaskFinish, JobID: 1, TaskID: 0, Time: 5, Latency: 5}}))
	if resp.StatusCode != http.StatusOK || res.Events != 1 {
		t.Fatalf("independent client refused: %s %+v", resp.Status, res)
	}

	// The front folds limiter counters into /stats.
	sresp, err2 := ts.Client().Get(ts.URL + "/stats")
	if err2 != nil {
		t.Fatal(err2)
	}
	defer sresp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Overload.RateLimited < 1 || st.Overload.RateShedHeartbeats < 20 {
		t.Fatalf("stats: rate_limited=%d rate_shed=%d, want >=1 and >=20",
			st.Overload.RateLimited, st.Overload.RateShedHeartbeats)
	}
}

// TestRetryAfterClasses: 429 (transient load) and 503 (durability outage)
// back off on different timescales — the 429 hint is load-derived and small,
// the 503 hint is the fixed, longer outage constant.
func TestRetryAfterClasses(t *testing.T) {
	fs := waltest.NewMemFS()
	sv, wlog, _, err := serve.Recover("wal", servetest.CheapConfig(1), wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	spec := wire.JobSpec{JobID: 7, Schema: []string{"cpu"}, NumTasks: 2, TauStra: 10,
		Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: 7}
	if err := sv.StartJob(spec, nil); err != nil {
		t.Fatal(err)
	}
	fs.SetBudget(fs.TotalWritten()) // wedge the WAL
	ts := httptest.NewServer(NewHandler(sv))
	defer ts.Close()
	resp, _ := postIngest(t, ts, wireBody(t, nil, []wire.Event{
		{Kind: wire.EventTaskStart, JobID: 7, TaskID: 0, Time: 1}}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("wedged WAL: %s, want 503", resp.Status)
	}
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Fatalf("503 Retry-After %q, want the fixed outage hint \"30\"", got)
	}
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

// TestStatsHTTPRefitFields covers the /stats JSON surface of the pipeline:
// the new fields are present, and on a drained server the gauges are zero
// while the warm/scratch split accounts for every refit.
func TestStatsHTTPRefitFields(t *testing.T) {
	jobs, sims := servetest.SmallJobs(t, 2, 83)
	sv := serve.NewServer(serve.Config{Shards: 2, RefitMode: wire.RefitWarm})
	for i := range jobs {
		s, _ := nurdSeed(t, 83, i)
		if err := sv.StartJob(serve.SpecFor(sims[i], s), nil); err != nil {
			t.Fatal(err)
		}
		if err := servetest.IngestBatch(sv, serve.JobEvents(jobs[i], sims[i])); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewHandler(sv))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"RefitQueue", "RefitInflight", "RefitLag", "WarmFits", "ScratchFits", "Refits"} {
		if _, ok := got[field]; !ok {
			t.Errorf("/stats missing field %q", field)
		}
	}
	for _, gauge := range []string{"RefitQueue", "RefitInflight", "RefitLag"} {
		if v := got[gauge].(float64); v != 0 {
			t.Errorf("drained server reports %s=%v", gauge, v)
		}
	}
	warm, scratch := got["WarmFits"].(float64), got["ScratchFits"].(float64)
	refits := got["Refits"].(float64)
	if warm == 0 {
		t.Error("warm-mode server recorded no warm fits")
	}
	if scratch == 0 {
		t.Error("warm-mode server recorded no scratch fits (each job's first fit is scratch)")
	}
	// Refit cycles the predictor's own MinFinishedFrac gate declines fit no
	// model, so the strategy split bounds but need not equal the cycle count.
	if warm+scratch > refits {
		t.Errorf("warm %v + scratch %v exceeds refits %v", warm, scratch, refits)
	}
	// Per-job reports expose the same accounting.
	for i := range jobs {
		rep, err := sv.Report(jobs[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Generation != rep.Refits || rep.PendingRefits != 0 {
			t.Errorf("job %d: generation=%d refits=%d pending=%d", i, rep.Generation, rep.Refits, rep.PendingRefits)
		}
		if int(rep.WarmFits+rep.ScratchFits) > rep.Refits {
			t.Errorf("job %d: warm %d + scratch %d exceeds refits %d", i, rep.WarmFits, rep.ScratchFits, rep.Refits)
		}
		if rep.Spec.RefitMode != wire.RefitWarm {
			t.Errorf("job %d: spec mode %v, want warm (stamped from server config)", i, rep.Spec.RefitMode)
		}
	}
}
