package servehttp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

// wireBody assembles one ingest request body.
func wireBody(t testing.TB, specs []wire.JobSpec, events []wire.Event) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteDump(&buf, specs, events); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

func postIngest(t testing.TB, ts *httptest.Server, body io.Reader) (*http.Response, IngestResult) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/ingest", wireContentType, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("ingest response is not JSON: %v", err)
	}
	return resp, res
}

func getJSON(t testing.TB, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: response is not JSON: %v", path, err)
		}
	}
	return resp
}

// durable builds an empty server logging to a write-ahead log on an
// in-memory filesystem: GET /snapshot streams that log's compacted base.
func durable(t testing.TB, cfg serve.Config) *serve.Server {
	t.Helper()
	sv, w, _, err := serve.Recover("wal", cfg, wal.Options{FS: waltest.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return sv
}

// TestHTTPFront covers the full request surface: batch ingest, query,
// report, stats, snapshot, and every documented error path.
func TestHTTPFront(t *testing.T) {
	jobs, sims := servetest.SmallJobs(t, 1, 61)
	job, sim := jobs[0], sims[0]
	spec := serve.SpecFor(sim, 5)
	events := serve.JobEvents(job, sim)
	sv := durable(t, serve.Config{Shards: 2})
	ts := httptest.NewServer(NewHandler(sv))
	defer ts.Close()

	// Batch ingest: registration plus the full stream in one body.
	resp, res := postIngest(t, ts, wireBody(t, []wire.JobSpec{spec}, events))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s (%s)", resp.Status, res.Error)
	}
	if res.Specs != 1 || res.Events != len(events) {
		t.Fatalf("ingest applied %d specs / %d events, want 1 / %d", res.Specs, res.Events, len(events))
	}

	// Query: verdicts for the first three tasks plus one out of range.
	var vs []serve.TaskVerdict
	if resp := getJSON(t, ts, fmt.Sprintf("/query?job=%d&tasks=0,1,2,-1", job.ID), &vs); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %s", resp.Status)
	}
	if len(vs) != 4 || vs[0].TaskID != 0 || vs[3].Known {
		t.Fatalf("query verdicts malformed: %+v", vs)
	}
	want, err := sv.Query(job.ID, []int{0, 1, 2, -1})
	if err != nil {
		t.Fatal(err)
	}
	// Compare through JSON so float round-tripping applies to both sides.
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(vs)
	if !bytes.Equal(wb, gb) {
		t.Errorf("HTTP verdicts diverge from direct Query:\n http   %s\n direct %s", gb, wb)
	}

	// Report.
	var rep serve.JobReport
	if resp := getJSON(t, ts, fmt.Sprintf("/report?job=%d", job.ID), &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %s", resp.Status)
	}
	if !rep.Done || rep.Started != job.NumTasks() {
		t.Errorf("report: done=%v started=%d, want done with %d started", rep.Done, rep.Started, job.NumTasks())
	}

	// Stats.
	var st serve.Stats
	if resp := getJSON(t, ts, "/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %s", resp.Status)
	}
	if st.Events != uint64(len(events)) || st.Jobs != 1 {
		t.Errorf("stats: %+v", st)
	}

	// Snapshot over HTTP restores to an equivalent server.
	sresp, err := ts.Client().Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil || sresp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %s, %v", sresp.Status, err)
	}
	restored, err := serve.RestoreServer(bytes.NewReader(snap), serve.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rv, err := restored.Query(job.ID, []int{0, 1, 2, -1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rv, want) {
		t.Error("server restored from GET /snapshot answers differently")
	}
}

// TestHTTPErrors pins the error mapping: 405 for wrong methods, 400 for
// malformed bodies and parameters, 404 for unknown jobs, 422 for protocol
// violations.
func TestHTTPErrors(t *testing.T) {
	_, sims := servetest.SmallJobs(t, 1, 67)
	spec := serve.SpecFor(sims[0], 5)
	sv := serve.NewServer(serve.Config{Shards: 2})
	ts := httptest.NewServer(NewHandler(sv))
	defer ts.Close()
	if _, res := postIngest(t, ts, wireBody(t, []wire.JobSpec{spec}, nil)); res.Error != "" {
		t.Fatalf("registering: %s", res.Error)
	}

	get := func(path string) int {
		resp := getJSON(t, ts, path, nil)
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name string
		got  int
		want int
	}{
		{"GET /ingest", get("/ingest"), http.StatusMethodNotAllowed},
		{"query without job", get("/query?tasks=0"), http.StatusBadRequest},
		{"query bad job", get("/query?job=banana&tasks=0"), http.StatusBadRequest},
		{"query without tasks", get(fmt.Sprintf("/query?job=%d", spec.JobID)), http.StatusBadRequest},
		{"query bad task id", get(fmt.Sprintf("/query?job=%d&tasks=0,x", spec.JobID)), http.StatusBadRequest},
		{"query unknown job", get("/query?job=424242&tasks=0"), http.StatusNotFound},
		{"report without job", get("/report"), http.StatusBadRequest},
		{"report unknown job", get("/report?job=424242"), http.StatusNotFound},
		{"snapshot without a WAL", get("/snapshot"), http.StatusConflict},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, c.got, c.want)
		}
	}

	// The 409 says what the snapshot needs.
	sresp, err := ts.Client().Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if !strings.Contains(string(body), "-wal") {
		t.Errorf("snapshot without a WAL: body %q does not name -wal", body)
	}

	// Malformed body: not a wire stream at all.
	resp, res := postIngest(t, ts, bytes.NewReader([]byte("definitely not NURDWIRE")))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d (%s), want 400", resp.StatusCode, res.Error)
	}

	// Truncated body: a valid prefix cut mid-frame.
	var buf bytes.Buffer
	if err := wire.WriteDump(&buf, nil, []wire.Event{{Kind: wire.EventTaskStart, JobID: spec.JobID, TaskID: 0}}); err != nil {
		t.Fatal(err)
	}
	resp, res = postIngest(t, ts, bytes.NewReader(buf.Bytes()[:buf.Len()-2]))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated body: status %d (%s), want 400", resp.StatusCode, res.Error)
	}

	// Events for an unregistered job: 404, with prior frames applied.
	resp, res = postIngest(t, ts, wireBody(t, nil, []wire.Event{
		{Kind: wire.EventTaskStart, JobID: spec.JobID, TaskID: 0},
		{Kind: wire.EventTaskStart, JobID: 999999, TaskID: 0},
	}))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d (%s), want 404", resp.StatusCode, res.Error)
	}
	if res.Events != 1 {
		t.Errorf("unknown job: %d events applied before the failure, want 1", res.Events)
	}

	// Protocol violations: duplicate registration, schema mismatch.
	resp, _ = postIngest(t, ts, wireBody(t, []wire.JobSpec{spec}, nil))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("duplicate registration: status %d, want 422", resp.StatusCode)
	}
	resp, _ = postIngest(t, ts, wireBody(t, nil, []wire.Event{
		{Kind: wire.EventHeartbeat, JobID: spec.JobID, TaskID: 0, Time: 1, Features: []float64{1}},
	}))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("schema mismatch: status %d, want 422", resp.StatusCode)
	}

	// A spec with a NaN threshold or an infinite horizon is refused, so no
	// job is registered whose every report would fail.
	bad := spec
	bad.JobID, bad.TauStra, bad.Horizon = 77, math.NaN(), math.Inf(1)
	resp, res = postIngest(t, ts, wireBody(t, []wire.JobSpec{bad}, nil))
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(res.Error, "TauStra") {
		t.Errorf("NaN TauStra: status %d (%s), want 422 naming TauStra", resp.StatusCode, res.Error)
	}
	if got := get("/report?job=77"); got != http.StatusNotFound {
		t.Errorf("report of the refused job: status %d, want 404", got)
	}
}

// TestHTTPBudget: registrations beyond the server's job/task budget map to
// 429, and the response reports how many specs were applied before it.
func TestHTTPBudget(t *testing.T) {
	sv := serve.NewServer(serve.Config{Shards: 1, MaxJobs: 1})
	ts := httptest.NewServer(NewHandler(sv))
	defer ts.Close()
	specs := []wire.JobSpec{
		{JobID: 1, Schema: []string{"a"}, NumTasks: 4, TauStra: 5, Horizon: 100},
		{JobID: 2, Schema: []string{"a"}, NumTasks: 4, TauStra: 5, Horizon: 100},
	}
	resp, res := postIngest(t, ts, wireBody(t, specs, nil))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("budget exhaustion: status %d (%s), want 429", resp.StatusCode, res.Error)
	}
	if res.Specs != 1 {
		t.Errorf("applied %d specs before the budget error, want 1", res.Specs)
	}
}

// TestHTTPConcurrentClients is the transport-level race stressor: many
// clients streaming distinct jobs through POST /ingest in chunks while
// query and stats clients hammer the read paths. Run under -race in CI.
func TestHTTPConcurrentClients(t *testing.T) {
	const n = 8
	jobs, sims := servetest.SmallJobs(t, n, 71)
	sv := serve.NewServer(serve.Config{Shards: 2}) // small shard count forces sharing
	ts := httptest.NewServer(NewHandler(sv))
	defer ts.Close()

	// Register every job up front (one request each) so the concurrent
	// query traffic below can never legitimately see an unknown job.
	specs := make([]wire.JobSpec, n)
	for i := range jobs {
		specs[i] = serve.SpecFor(sims[i], uint64(i))
		if resp, res := postIngest(t, ts, wireBody(t, []wire.JobSpec{specs[i]}, nil)); resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d register: %s (%s)", specs[i].JobID, resp.Status, res.Error)
		}
	}

	var wg sync.WaitGroup
	for i := range jobs {
		spec := specs[i]
		events := serve.JobEvents(jobs[i], sims[i])
		wg.Add(1)
		go func(spec wire.JobSpec, events []wire.Event) {
			defer wg.Done()
			// The job's stream in four chunked requests.
			for c := 0; c < 4; c++ {
				lo, hi := c*len(events)/4, (c+1)*len(events)/4
				if resp, res := postIngest(t, ts, wireBody(t, nil, events[lo:hi])); resp.StatusCode != http.StatusOK {
					t.Errorf("job %d chunk %d: %s (%s)", spec.JobID, c, resp.Status, res.Error)
					return
				}
			}
		}(spec, events)
		wg.Add(1)
		go func(id uint64, ntasks int) {
			defer wg.Done()
			for q := 0; q < 25; q++ {
				resp := getJSON(t, ts, fmt.Sprintf("/query?job=%d&tasks=%d", id, q%ntasks), nil)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query job %d: %s", id, resp.Status)
					return
				}
			}
		}(spec.JobID, spec.NumTasks)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for q := 0; q < 50; q++ {
			resp := getJSON(t, ts, "/stats", nil)
			resp.Body.Close()
		}
	}()
	wg.Wait()

	st := sv.Stats()
	if st.Jobs != n || st.ActiveJobs != 0 {
		t.Errorf("after concurrent ingest: jobs=%d active=%d, want %d/0", st.Jobs, st.ActiveJobs, n)
	}
	for i := range jobs {
		rep, err := sv.Report(jobs[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Done {
			t.Errorf("job %d not done after its chunks drained", jobs[i].ID)
		}
	}
}

// failAfterWriter is an http.ResponseWriter whose body fails after limit
// bytes — the shape of a client that dies mid-download or a proxy that
// cuts the stream. It records whether the handler explicitly set a status.
type failAfterWriter struct {
	hdr       http.Header
	buf       bytes.Buffer
	limit     int
	statuses  []int
	writeErrs int
}

func (f *failAfterWriter) Header() http.Header {
	if f.hdr == nil {
		f.hdr = make(http.Header)
	}
	return f.hdr
}

func (f *failAfterWriter) WriteHeader(code int) { f.statuses = append(f.statuses, code) }

func (f *failAfterWriter) Write(p []byte) (int, error) {
	room := f.limit - f.buf.Len()
	if room <= 0 {
		f.writeErrs++
		return 0, fmt.Errorf("stream cut by peer")
	}
	if len(p) > room {
		f.buf.Write(p[:room])
		f.writeErrs++
		return room, fmt.Errorf("stream cut by peer")
	}
	f.buf.Write(p)
	return len(p), nil
}

// TestSnapshotMidStreamAbort is the regression test for the /snapshot
// error path: once snapshot bytes are on the wire, a mid-stream write
// failure must abort the connection (panic(http.ErrAbortHandler), the
// net/http contract for a hard close) — never call WriteHeader again, and
// never append error text to the partial wire stream.
func TestSnapshotMidStreamAbort(t *testing.T) {
	jobs, sims := servetest.SmallJobs(t, 1, 83)
	sv := durable(t, serve.Config{Shards: 1})
	if err := sv.StartJob(serve.SpecFor(sims[0], 3), nil); err != nil {
		t.Fatal(err)
	}
	if err := servetest.IngestBatch(sv, serve.JobEvents(jobs[0], sims[0])); err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := sv.Snapshot(&full); err != nil {
		t.Fatal(err)
	}
	if full.Len() < 64 {
		t.Fatalf("snapshot too small (%d bytes) to cut mid-stream", full.Len())
	}
	h := NewHandler(sv)

	for _, limit := range []int{1, 17, full.Len() / 2, full.Len() - 1} {
		fw := &failAfterWriter{limit: limit}
		aborted := func() (aborted bool) {
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if r != http.ErrAbortHandler {
					t.Fatalf("limit %d: handler panicked with %v, want http.ErrAbortHandler", limit, r)
				}
				aborted = true
			}()
			h.ServeHTTP(fw, httptest.NewRequest(http.MethodGet, "/snapshot", nil))
			return false
		}()
		if !aborted {
			t.Fatalf("limit %d: mid-stream write failure did not abort the connection", limit)
		}
		if len(fw.statuses) != 0 {
			t.Errorf("limit %d: handler wrote status %v after the stream started (superfluous WriteHeader)", limit, fw.statuses)
		}
		// Nothing but the true snapshot prefix may reach the wire: the cut
		// body must be a byte-prefix of the real stream, with no error text
		// appended after the failure.
		if got := fw.buf.Bytes(); !bytes.Equal(got, full.Bytes()[:len(got)]) {
			t.Errorf("limit %d: response diverged from the snapshot stream", limit)
		}
	}

	// A healthy writer still streams the whole snapshot with an implicit
	// 200 (no explicit status call, no trailing garbage).
	fw := &failAfterWriter{limit: full.Len() + 1}
	h.ServeHTTP(fw, httptest.NewRequest(http.MethodGet, "/snapshot", nil))
	if len(fw.statuses) != 0 || !bytes.Equal(fw.buf.Bytes(), full.Bytes()) {
		t.Errorf("clean snapshot altered the stream (statuses %v, %d vs %d bytes)",
			fw.statuses, fw.buf.Len(), full.Len())
	}
	if _, err := serve.RestoreServer(bytes.NewReader(fw.buf.Bytes()), serve.Config{Shards: 1}); err != nil {
		t.Errorf("streamed snapshot does not restore: %v", err)
	}
}

// TestServerFaultBodiesRedacted pins the 5xx redaction contract: a wedged
// write-ahead log surfaces to remote clients as 503 with a generic body —
// no filesystem paths, no wrapped internal error text — while client-fault
// responses (404 here) keep the typed detail the caller needs.
func TestServerFaultBodiesRedacted(t *testing.T) {
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
	fs.SetBudget(fs.TotalWritten()) // every further WAL write fails: wedged log
	ts := httptest.NewServer(NewHandler(sv))
	defer ts.Close()

	resp, res := postIngest(t, ts, wireBody(t, nil, []wire.Event{
		{Kind: wire.EventTaskStart, JobID: 7, TaskID: 0, Time: 1}}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest against a wedged WAL: %s (%s)", resp.Status, res.Error)
	}
	for _, leak := range []string{"wal", "serve", "memfs", "/", "crashed"} {
		if strings.Contains(strings.ToLower(res.Error), leak) {
			t.Errorf("503 body leaks internal detail %q: %q", leak, res.Error)
		}
	}
	if res.Error == "" {
		t.Error("503 body carries no message at all")
	}

	// Client faults keep their diagnostic detail.
	resp, res = postIngest(t, ts, wireBody(t, nil, []wire.Event{
		{Kind: wire.EventTaskStart, JobID: 999, TaskID: 0, Time: 1}}))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ingest for an unknown job: %s", resp.Status)
	}
	if !strings.Contains(res.Error, "unknown job") {
		t.Errorf("404 body lost its typed detail: %q", res.Error)
	}
	var out []serve.TaskVerdict
	if resp := getJSON(t, ts, "/query?job=999&tasks=0", &out); resp.StatusCode != http.StatusNotFound {
		t.Errorf("query for an unknown job: %s", resp.Status)
	}
}

// TestHealthAndReadiness: a healthy server answers 200 on /healthz and
// /readyz, with and without a write-ahead log. Once a failed log write
// wedges the WAL, /healthz still answers 200 (the process serves), while
// /readyz answers 503 with the outage Retry-After, and /stats shows the
// wedge.
func TestHealthAndReadiness(t *testing.T) {
	probe := func(ts *httptest.Server, path string) *http.Response {
		t.Helper()
		var body map[string]any
		return getJSON(t, ts, path, &body)
	}
	plain := httptest.NewServer(NewHandler(serve.NewServer(servetest.CheapConfig(1))))
	defer plain.Close()
	fs := waltest.NewMemFS()
	sv, wlog, _, err := serve.Recover("wal", servetest.CheapConfig(1), wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	logged := httptest.NewServer(NewHandler(sv))
	defer logged.Close()
	for _, ts := range []*httptest.Server{plain, logged} {
		for _, path := range []string{"/healthz", "/readyz"} {
			if resp := probe(ts, path); resp.StatusCode != http.StatusOK {
				t.Errorf("healthy server: GET %s answered %s", path, resp.Status)
			}
		}
	}

	spec := wire.JobSpec{JobID: 7, Schema: []string{"cpu"}, NumTasks: 2, TauStra: 10,
		Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: 7}
	if err := sv.StartJob(spec, nil); err != nil {
		t.Fatal(err)
	}
	fs.SetBudget(fs.TotalWritten()) // every further WAL write fails
	if resp, res := postIngest(t, logged, wireBody(t, nil, []wire.Event{
		{Kind: wire.EventTaskStart, JobID: 7, TaskID: 0, Time: 1}})); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest against a failing WAL: %s (%s)", resp.Status, res.Error)
	}
	if resp := probe(logged, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("wedged WAL: GET /healthz answered %s, want 200", resp.Status)
	}
	resp := probe(logged, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("wedged WAL: GET /readyz answered %s, want 503", resp.Status)
	}
	if got, want := resp.Header.Get("Retry-After"), strconv.Itoa(serve.RetryAfterOutageSeconds); got != want {
		t.Errorf("wedged WAL: /readyz Retry-After %q, want %q", got, want)
	}
	var st serve.Stats
	if resp := getJSON(t, logged, "/stats", &st); resp.StatusCode != http.StatusOK || st.WAL == nil || !st.WAL.Wedged {
		t.Errorf("wedged WAL: /stats answered %s with WAL %+v, want wedged", resp.Status, st.WAL)
	}
}

// TestHTTP429RetryAfter: every ErrOverloaded→429 response must carry a
// Retry-After back-off hint, the fixed budgetRetryAfterSeconds: budget
// returns only when a job is dropped, so no load reading changes it.
// Without the header, RFC-compliant retry loops default to immediate retry
// and amplify the very overload the 429 reports.
func TestHTTP429RetryAfter(t *testing.T) {
	sv := serve.NewServer(serve.Config{Shards: 1, MaxJobs: 1})
	ts := httptest.NewServer(NewHandler(sv))
	defer ts.Close()
	specs := []wire.JobSpec{
		{JobID: 1, Schema: []string{"a"}, NumTasks: 4, TauStra: 5, Horizon: 100},
		{JobID: 2, Schema: []string{"a"}, NumTasks: 4, TauStra: 5, Horizon: 100},
	}
	resp, res := postIngest(t, ts, wireBody(t, specs, nil))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("budget exhaustion: status %d (%s), want 429", resp.StatusCode, res.Error)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("budget 429 Retry-After = %q, want the fixed \"1\"", ra)
	}

	// Successful responses must not advertise a back-off.
	resp2, res2 := postIngest(t, ts, wireBody(t, nil, nil))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("empty ingest: status %d (%s)", resp2.StatusCode, res2.Error)
	}
	if got := resp2.Header.Get("Retry-After"); got != "" {
		t.Errorf("200 response carries Retry-After %q", got)
	}
}

// TestIngestHandlerAllocs: a 256-frame heartbeat body through the handler
// into a WAL-backed server costs a per-body constant — the reader and its
// buffer, the body limit, the JSON answer, the commit's write — plus the
// checkpoint view each body's boundary captures: its slices, the one buffer
// its rows are copied into, and the fit's verdicts. Frame reads, event
// decode, apply and WAL staging put nothing on the heap: a heartbeat
// overwrites its task's row, decoded from the body's reused buffer. Every
// body after the first crosses one boundary with the warm gate open, so the
// views are really captured.
//
// Measured: 0.10 per event (26 a body, about half of it the view).
func TestIngestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sv, wlog, _, err := serve.Recover("wal", servetest.CheapConfig(1), wal.Options{FS: waltest.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	// Boundary k sits at time k, and body i's heartbeats run through (i+1,
	// i+2], so each body fires one boundary. The first five tasks finish
	// before any body: the warm count of 16 tasks at 0.25.
	const tasks, frames, runs, finished = 16, 256, 50, 5
	spec := wire.JobSpec{JobID: 7, Schema: make([]string, 15), NumTasks: tasks, TauStra: 10,
		Horizon: 64, Checkpoints: 64, WarmFrac: 0.25, Seed: 7}
	for i := range spec.Schema {
		spec.Schema[i] = "c" + strconv.Itoa(i)
	}
	if err := sv.StartJob(spec, servetest.Nop{}); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < tasks; id++ {
		if err := sv.Ingest(wire.Event{Kind: wire.EventTaskStart, JobID: 7, TaskID: id, Time: 0}); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < finished; id++ {
		if err := sv.Ingest(wire.Event{Kind: wire.EventTaskFinish, JobID: 7, TaskID: id, Time: 0.5, Latency: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	// One body for the check, one for AllocsPerRun's warm-up, one per run.
	bodies := make([][]byte, runs+2)
	for b := range bodies {
		body := wire.AppendHeader(nil)
		for i := 0; i < frames; i++ {
			tm := float64(b+1) + float64(i+1)/frames
			hb := wire.Event{Kind: wire.EventHeartbeat, JobID: 7, TaskID: i % tasks, Time: tm, Tick: b + 1, Features: make([]float64, 15)}
			if body, err = wire.EncodeEvent(body, hb); err != nil {
				t.Fatal(err)
			}
		}
		bodies[b] = body
	}
	h := NewHandler(sv)
	var rd bytes.Reader
	w := &memWriter{hdr: http.Header{}}
	next := 0
	post := func() {
		body := bodies[next]
		next++
		rd.Reset(body)
		w.reset()
		h.ServeHTTP(w, &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/ingest"},
			Body: io.NopCloser(&rd), ContentLength: int64(len(body))})
	}
	post()
	if want := fmt.Sprintf(`{"specs":0,"events":%d}`, frames); w.code != http.StatusOK || strings.TrimSpace(w.buf.String()) != want {
		t.Fatalf("ingest answered %d %s, want 200 %s", w.code, w.buf.String(), want)
	}
	perEvent := testing.AllocsPerRun(runs, post) / frames
	if st := sv.Stats(); st.Refits < runs {
		t.Fatalf("%d refits over %d bodies: the bodies did not capture a view each", st.Refits, runs+2)
	}
	if perEvent > 0.25 {
		t.Errorf("%.2f allocations per ingested event, want <= 0.25", perEvent)
	}
	t.Logf("%.2f allocations per ingested event", perEvent)
}

// TestIngestBodyLimitIs413: the body limit's own error travels through the
// frame reader unchanged — whether it strikes inside a frame or arrives with
// the last bytes of one — so errCode still answers 413, not the 400 a
// truncated stream gets.
func TestIngestBodyLimitIs413(t *testing.T) {
	var events []wire.Event
	for i := 0; i < 8; i++ {
		events = append(events, wire.Event{Kind: wire.EventHeartbeat, JobID: 1, TaskID: i, Features: []float64{1, 2}})
	}
	var buf bytes.Buffer
	if err := wire.WriteDump(&buf, nil, events); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	frame := (len(body) - wire.HeaderLen) / len(events)
	for _, tc := range []struct {
		name       string
		limit      int
		wantFrames int
	}{
		{"inside the header", wire.HeaderLen - 2, 0},
		{"inside a frame", wire.HeaderLen + 3*frame + 7, 3},
		{"on a frame boundary", wire.HeaderLen + 5*frame, 5},
	} {
		wr := wire.NewReader(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), int64(tc.limit)))
		n := 0
		var err error
		for ; err == nil; n++ {
			_, _, err = wr.NextFrame()
		}
		if n--; n != tc.wantFrames {
			t.Errorf("limit %s: %d frames before the error, want %d", tc.name, n, tc.wantFrames)
		}
		if code := errCode(err, true); code != http.StatusRequestEntityTooLarge {
			t.Errorf("limit %s: %v answers %d, want 413", tc.name, err, code)
		}
	}
}

// TestIngestBodyAcrossDrop streams one body whose frames of job J straddle
// a DropJob(J): the body's staging state remembers J's registration
// between frames, and must not outlive it. Re-registered in between, the
// later frame applies to the new registration (200); dropped alone, it is
// an unknown job (404), as it would be in a body of its own.
func TestIngestBodyAcrossDrop(t *testing.T) {
	const id = 3
	spec := wire.JobSpec{JobID: id, Schema: []string{"cpu"}, NumTasks: 2, TauStra: 10,
		Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: 1}
	for _, restart := range []bool{true, false} {
		sv := serve.NewServer(servetest.CheapConfig(2))
		if err := sv.StartJob(spec, nil); err != nil {
			t.Fatal(err)
		}
		pr, pw := io.Pipe()
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			NewHandler(sv).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", pr))
		}()
		ww := wire.NewWriter(pw)
		for _, ev := range []wire.Event{
			{Kind: wire.EventTaskStart, JobID: id, TaskID: 0, Time: 1},
			{Kind: wire.EventJobFinish, JobID: id, Time: 2},
		} {
			if err := ww.WriteEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		// The reader never reads ahead of a frame, so once both frames are
		// applied the handler waits on the pipe for the next one.
		for deadline := time.Now().Add(10 * time.Second); sv.Stats().Events < 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the body's first frames were never applied")
			}
		}
		if err := sv.DropJob(id); err != nil {
			t.Fatal(err)
		}
		if restart {
			if err := sv.StartJob(spec, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := ww.WriteEvent(wire.Event{Kind: wire.EventTaskStart, JobID: id, TaskID: 1, Time: 3}); err != nil {
			t.Fatal(err)
		}
		pw.Close()
		<-done
		var res IngestResult
		if err := json.NewDecoder(rec.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if !restart {
			if rec.Code != http.StatusNotFound || res.Events != 2 {
				t.Fatalf("frame after DropJob: %d %+v, want 404 after 2 events", rec.Code, res)
			}
			continue
		}
		if rec.Code != http.StatusOK || res.Events != 3 {
			t.Fatalf("frame after DropJob and StartJob: %d %+v, want 200 with 3 events", rec.Code, res)
		}
		rep, err := sv.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Done || rep.Started != 1 {
			t.Fatalf("new registration: done %v, %d started", rep.Done, rep.Started)
		}
	}
}

// dropFrame encodes a drop of jobID, the frame DropJob logs.
func dropFrame(jobID uint64) []byte {
	return wire.AppendFrame(nil, wire.FrameDrop, binary.LittleEndian.AppendUint64(nil, jobID))
}

// drained waits until sv's refit pipeline is empty, so its Stats are final.
func drained(t testing.TB, sv *serve.Server) serve.Stats {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st := sv.Stats()
		if st.RefitQueue+st.RefitInflight+st.RefitLag == 0 {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("refit pipeline never drained: %v", st)
		}
	}
}

// TestIngestDropFrame: a drop frame travels through POST /ingest like any
// other. One body registers jobs 3 and 4, streams and finishes both, drops
// both and registers 3 again with events of its new life: the reply counts
// the drops, a recovery of the log rebuilds the live server, and the job
// left dropped answers the typed 404. A body holding only a drop is in the
// log — synced, at SyncEvery 0 — before its 200.
func TestIngestDropFrame(t *testing.T) {
	const again, gone = 3, 4
	spec := func(id, seed uint64) wire.JobSpec {
		return wire.JobSpec{JobID: id, Schema: []string{"cpu"}, NumTasks: 2, TauStra: 10,
			Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: seed}
	}
	life := func(id uint64) []wire.Event {
		return []wire.Event{
			{Kind: wire.EventTaskStart, JobID: id, TaskID: 0, Time: 1},
			{Kind: wire.EventTaskStart, JobID: id, TaskID: 1, Time: 2},
			{Kind: wire.EventHeartbeat, JobID: id, TaskID: 0, Time: 30, Tick: 1, Features: []float64{3}},
			{Kind: wire.EventHeartbeat, JobID: id, TaskID: 1, Time: 30, Tick: 1, Features: []float64{5}},
			{Kind: wire.EventTaskFinish, JobID: id, TaskID: 0, Time: 40, Latency: 39},
		}
	}
	body := wire.AppendHeader(nil)
	frame := func(b []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		body = b
	}
	for _, id := range []uint64{again, gone} {
		frame(wire.EncodeSpec(body, spec(id, 1)))
		for _, e := range life(id) {
			frame(wire.EncodeEvent(body, e))
		}
		frame(wire.EncodeEvent(body, wire.Event{Kind: wire.EventJobFinish, JobID: id, Time: 50}))
		body = append(body, dropFrame(id)...)
	}
	frame(wire.EncodeSpec(body, spec(again, 2)))
	for _, e := range life(again)[:3] {
		frame(wire.EncodeEvent(body, e))
	}

	fs := waltest.NewMemFS()
	opts := wal.Options{FS: fs}
	sv, log, _, err := serve.Recover("wal", servetest.CheapConfig(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	ts := httptest.NewServer(NewHandler(sv))
	defer ts.Close()
	resp, res := postIngest(t, ts, bytes.NewReader(body))
	if resp.StatusCode != http.StatusOK || res.Specs != 3 || res.Events != 15 || res.Drops != 2 {
		t.Fatalf("POST /ingest: %s %+v, want 200 with 3 specs, 15 events, 2 drops", resp.Status, res)
	}

	for _, path := range []string{fmt.Sprintf("/query?job=%d&tasks=0", gone), fmt.Sprintf("/report?job=%d", gone)} {
		var res IngestResult
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusNotFound || !strings.Contains(res.Error, serve.ErrUnknownJob.Error()) {
			t.Errorf("GET %s of the dropped job: %d %q (%v), want 404 naming %q",
				path, resp.StatusCode, res.Error, err, serve.ErrUnknownJob)
		}
	}

	image := opts
	image.FS = waltest.FSAt(fs.Journal, fs.TotalWritten(), true)
	rec, recLog, _, err := serve.Recover("wal", servetest.CheapConfig(2), image)
	if err != nil {
		t.Fatal(err)
	}
	defer recLog.Close()
	rep, err := rec.Report(again)
	if err != nil {
		t.Fatal(err)
	}
	live, err := sv.Report(again)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(servetest.CoreOf(rep), servetest.CoreOf(live)) || rep.Spec.Seed != 2 {
		t.Errorf("recovered job %d:\n %+v\nlive:\n %+v", again, servetest.CoreOf(rep), servetest.CoreOf(live))
	}
	liveV, err := sv.Query(again, servetest.AllTaskIDs(2))
	if err != nil {
		t.Fatal(err)
	}
	recV, err := rec.Query(again, servetest.AllTaskIDs(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveV, recV) {
		t.Errorf("recovered verdicts %+v, live %+v", recV, liveV)
	}
	if _, err := rec.Report(gone); !errors.Is(err, serve.ErrUnknownJob) {
		t.Errorf("recovered server reports the dropped job: %v", err)
	}
	// Queries served, refit wall times and the log's own counters are not
	// in the log.
	core := func(st serve.Stats) serve.Stats {
		st.Queries, st.RefitTotal, st.RefitMax, st.WAL = 0, 0, 0, nil
		return st
	}
	if a, b := core(drained(t, sv)), core(drained(t, rec)); !reflect.DeepEqual(a, b) {
		t.Errorf("recovered stats differ:\n live %v\n recovered %v", a, b)
	}

	// A body of one drop frame: the finished job's drop is synced before
	// the 200, so a power loss right after the reply keeps it.
	if _, res := postIngest(t, ts, wireBody(t, nil, []wire.Event{{Kind: wire.EventJobFinish, JobID: again, Time: 60}})); res.Error != "" {
		t.Fatal(res.Error)
	}
	resp, res = postIngest(t, ts, bytes.NewReader(append(wire.AppendHeader(nil), dropFrame(again)...)))
	if resp.StatusCode != http.StatusOK || res != (IngestResult{Drops: 1}) {
		t.Fatalf("POST /ingest of one drop: %s %+v, want 200 with 1 drop", resp.Status, res)
	}
	image.FS = waltest.FSAt(fs.Journal, fs.TotalWritten(), true)
	rec2, recLog2, _, err := serve.Recover("wal", servetest.CheapConfig(2), image)
	if err != nil {
		t.Fatal(err)
	}
	defer recLog2.Close()
	if ids := rec2.JobIDs(); len(ids) != 0 {
		t.Errorf("after a power loss, the acknowledged drop is gone: jobs %v registered", ids)
	}
}
