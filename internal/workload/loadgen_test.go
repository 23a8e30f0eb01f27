package workload

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/servehttp"
)

// finite fails the test if v is Inf or NaN.
func finite(t *testing.T, label string, v float64) {
	t.Helper()
	if math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("%s = %v: not finite", label, v)
	}
}

// runScenario synthesizes a builtin and drives it at an in-process front end.
func runScenario(t *testing.T, name string, speedup float64) *Report {
	t.Helper()
	ws, ok := Builtin(name)
	if !ok {
		t.Fatalf("builtin %q missing", name)
	}
	wl, err := Synthesize(ws)
	if err != nil {
		t.Fatal(err)
	}
	sv := serve.NewServer(serve.Config{Shards: 4})
	ts := httptest.NewServer(servehttp.NewHandler(sv))
	defer ts.Close()
	rep, err := Run(wl, &HTTPTarget{Client: ts.Client(), BaseURL: ts.URL}, Options{Speedup: speedup})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestLoadgenSmoke is the CI gate run in-process: the smoke scenario against
// a local server must produce a parseable report with finite percentiles,
// full acknowledgement, and an offered-vs-achieved gap under 20%.
func TestLoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop run sleeps on the wall clock")
	}
	rep := runScenario(t, "smoke", 4)

	// The report must survive a JSON round trip (it is BENCH_loadgen.json's
	// payload).
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}

	if rep.Errors > 0 {
		t.Fatalf("%d unexpected errors, first: %s", rep.Errors, rep.FirstError)
	}
	if rep.AckedEvents != rep.Events || rep.AckedSpecs != rep.Jobs {
		t.Errorf("acked %d/%d events, %d/%d specs: local server dropped traffic",
			rep.AckedEvents, rep.Events, rep.AckedSpecs, rep.Jobs)
	}
	finite(t, "p50", rep.Latency.P50)
	finite(t, "p99", rep.Latency.P99)
	finite(t, "p999", rep.Latency.P999)
	finite(t, "offered", rep.OfferedRate)
	finite(t, "achieved", rep.AchievedRate)
	if rep.Latency.P99 <= 0 {
		t.Errorf("p99 = %v ms, want > 0", rep.Latency.P99)
	}
	if rep.Latency.P50 > rep.Latency.P99 {
		t.Errorf("p50 %v > p99 %v", rep.Latency.P50, rep.Latency.P99)
	}
	if math.Abs(rep.RateGap) > 0.2 {
		t.Errorf("offered %v vs achieved %v ev/s: gap %.1f%% exceeds 20%%",
			rep.OfferedRate, rep.AchievedRate, 100*rep.RateGap)
	}
}

// TestLoadgenHostile: malformed frames must come back as the expected 400s —
// counted as bad-frame rejects, not errors — while the clean traffic is fully
// acknowledged around them.
func TestLoadgenHostile(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop run sleeps on the wall clock")
	}
	ws, _ := Builtin("hostile")
	ws.Duration = 8 // shrink to test time; keeps both clients active
	wl, err := Synthesize(ws)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Malformed == 0 {
		t.Fatal("hostile scenario injected nothing")
	}
	sv := serve.NewServer(serve.Config{Shards: 4})
	ts := httptest.NewServer(servehttp.NewHandler(sv))
	defer ts.Close()
	rep, err := Run(wl, &HTTPTarget{Client: ts.Client(), BaseURL: ts.URL}, Options{Speedup: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("%d unexpected errors, first: %s", rep.Errors, rep.FirstError)
	}
	if rep.BadFrameRejects != wl.Malformed {
		t.Errorf("%d bad-frame 400s for %d injected frames", rep.BadFrameRejects, wl.Malformed)
	}
	if rep.AckedEvents != rep.Events {
		t.Errorf("acked %d of %d clean events: injection poisoned clean traffic", rep.AckedEvents, rep.Events)
	}
}

// TestLoadgenOverload: a server with a one-job budget must answer the rest
// with 429s that carry Retry-After — the load harness is how the back-off
// contract is observed end to end.
func TestLoadgenOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop run sleeps on the wall clock")
	}
	ws, _ := Builtin("smoke")
	wl, err := Synthesize(ws)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Jobs < 2 {
		t.Skip("smoke synthesized fewer than 2 jobs")
	}
	sv := serve.NewServer(serve.Config{Shards: 1, MaxJobs: 1})
	ts := httptest.NewServer(servehttp.NewHandler(sv))
	defer ts.Close()
	rep, err := Run(wl, &HTTPTarget{Client: ts.Client(), BaseURL: ts.URL}, Options{Speedup: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected429 == 0 {
		t.Fatal("one-job server rejected nothing")
	}
	if rep.RetryAfterSeen < rep.Rejected429 {
		t.Errorf("%d of %d 429s carried Retry-After", rep.RetryAfterSeen, rep.Rejected429)
	}
}

// TestBuildLaneBatching pins the coalescing rules: batch cap, virtual-time
// window, and malformed isolation.
func TestBuildLaneBatching(t *testing.T) {
	ws, _ := Builtin("hostile")
	wl, err := Synthesize(ws)
	if err != nil {
		t.Fatal(err)
	}
	var lane []*Item
	for i := range wl.Items {
		if wl.Items[i].Client == 1 { // the attacker lane has malformed frames
			lane = append(lane, &wl.Items[i])
		}
	}
	const maxBatch = 4
	reqs, err := buildLane(lane, maxBatch, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, r := range reqs {
		total += r.frames
		if r.frames > maxBatch {
			t.Fatalf("request %d carries %d frames, cap is %d", i, r.frames, maxBatch)
		}
		if r.malformed && r.frames != 1 {
			t.Fatalf("request %d is malformed but batched %d frames", i, r.frames)
		}
		if i > 0 && r.due < reqs[i-1].due {
			t.Fatalf("request %d due %v before predecessor %v", i, r.due, reqs[i-1].due)
		}
	}
	if total != len(lane) {
		t.Fatalf("batched %d frames from %d items", total, len(lane))
	}
}

// TestRetryWait pins the Retry-After parse: whole seconds honored up to the
// cap, garbage (or sub-second hints) falls back to a short fixed wait.
func TestRetryWait(t *testing.T) {
	for _, tc := range []struct {
		hint string
		cap  time.Duration
		want time.Duration
	}{
		{"2", 5 * time.Second, 2 * time.Second},
		{" 3 ", 5 * time.Second, 3 * time.Second},
		{"30", time.Second, time.Second}, // capped
		{"0", time.Second, 100 * time.Millisecond},
		{"-1", time.Second, 100 * time.Millisecond},
		{"soon", time.Second, 100 * time.Millisecond},
		{"", time.Second, 100 * time.Millisecond},
	} {
		if got := retryWait(tc.hint, tc.cap); got != tc.want {
			t.Errorf("retryWait(%q, %v) = %v, want %v", tc.hint, tc.cap, got, tc.want)
		}
	}
}

// TestSynthesizeRetainsTruth: the workload keeps each job's ground-truth
// straggler labels (latency >= tau_stra), sized to the job and aligned with
// the job's spec — the handle accuracy scoring needs after a load run.
func TestSynthesizeRetainsTruth(t *testing.T) {
	ws, _ := Builtin("smoke")
	wl, err := Synthesize(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Truth) != wl.Jobs {
		t.Fatalf("truth for %d jobs, synthesized %d", len(wl.Truth), wl.Jobs)
	}
	specsSeen := 0
	for i := range wl.Items {
		sp := wl.Items[i].Spec
		if sp == nil {
			continue
		}
		specsSeen++
		truth, ok := wl.Truth[sp.JobID]
		if !ok {
			t.Fatalf("job %d has no truth", sp.JobID)
		}
		if len(truth) != sp.NumTasks {
			t.Fatalf("job %d: %d labels for %d tasks", sp.JobID, len(truth), sp.NumTasks)
		}
	}
	if specsSeen != wl.Jobs {
		t.Fatalf("saw %d specs, synthesized %d jobs", specsSeen, wl.Jobs)
	}
}

// TestLoadgenShedTaxonomy drives a rate-limited server: heartbeats over the
// per-client budget must come back as SHED (honest offered-vs-achieved
// accounting: not acked, not lost, not errors), finishes must all land, the
// query prober must run, and the completed jobs must be scorable against
// ground truth.
func TestLoadgenShedTaxonomy(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop run sleeps on the wall clock")
	}
	ws, _ := Builtin("smoke")
	ws.QueryRate = 10
	wl, err := Synthesize(ws)
	if err != nil {
		t.Fatal(err)
	}
	sv := serve.NewServer(serve.Config{Shards: 1, ClientRate: 150})
	ts := httptest.NewServer(servehttp.NewHandler(sv))
	defer ts.Close()
	tgt := &HTTPTarget{Client: ts.Client(), BaseURL: ts.URL}
	rep, err := Run(wl, tgt, Options{Speedup: 4, Retry429: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("%d unexpected errors, first: %s", rep.Errors, rep.FirstError)
	}
	if rep.ShedEvents == 0 {
		t.Fatal("rate-limited run shed nothing")
	}
	if rep.LostEvents != 0 {
		t.Fatalf("%d events acknowledged-but-lost", rep.LostEvents)
	}
	if rep.AckedEvents+rep.ShedEvents+rep.ThrottledEvents != rep.Events {
		t.Fatalf("taxonomy does not add up: acked %d + shed %d + throttled %d != offered %d",
			rep.AckedEvents, rep.ShedEvents, rep.ThrottledEvents, rep.Events)
	}
	if rep.Queries == 0 {
		t.Fatal("query prober recorded nothing")
	}
	finite(t, "query p99", rep.QueryLatency.P99)

	scores, err := ScoreJobs(tgt, wl)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 0, len(scores))
	for id, s := range scores {
		ids = append(ids, id)
		if s.F1 < 0 || s.F1 > 1 || math.IsNaN(s.F1) {
			t.Fatalf("job %d: F1=%v out of range", id, s.F1)
		}
	}
	finite(t, "macro F1", MacroF1(scores, ids))
}

// TestPostUnreadableReplyIsAnError: a 2xx /ingest reply whose body cannot be
// decoded or read in full carries no counts, so Post reports an error and Run
// books the request under errors, not as lost events (which the overload gate
// reads as a served-traffic integrity failure). A non-2xx body that is not
// JSON still reads as zero counts.
func TestPostUnreadableReplyIsAnError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		switch r.Header.Get("X-Nurd-Client") {
		case "cut":
			w.Header().Set("Content-Length", "64")
			io.WriteString(w, `{"specs":1}`) // whole JSON, cut short of its length
		case "down":
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "upstream down")
		default:
			io.WriteString(w, "{")
		}
	}))
	defer ts.Close()
	tgt := &HTTPTarget{Client: ts.Client(), BaseURL: ts.URL}
	for _, client := range []string{"", "cut"} {
		if res, err := tgt.Post(client, nil); err == nil {
			t.Errorf("client %q: Post of a 200 with an unreadable body: %+v, want an error", client, res)
		}
	}
	res, err := tgt.Post("down", nil)
	if err != nil || res.Status != http.StatusServiceUnavailable || res.Events != 0 || res.Err != "" {
		t.Errorf("503 with a plain-text body: %+v, %v; want the status, zero counts, no error", res, err)
	}

	ws, _ := Builtin("smoke")
	ws.Duration = 2
	wl, err := Synthesize(ws)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(wl, tgt, Options{Speedup: 50})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != rep.Requests || rep.LostEvents != 0 || !strings.Contains(rep.FirstError, "ingest reply") {
		t.Fatalf("every reply was an undecodable 200: errors %d of %d requests, lost %d, first error %q; want all errors, none lost",
			rep.Errors, rep.Requests, rep.LostEvents, rep.FirstError)
	}
}
