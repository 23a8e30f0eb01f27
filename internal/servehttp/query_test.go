package servehttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/nurd"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/trace"
)

// encodingJSON is the oracle appendVerdicts is held to: what the handler
// sent before it had its own encoder.
func encodingJSON(vs []serve.TaskVerdict) ([]byte, error) {
	b, err := json.Marshal(vs)
	return append(b, '\n'), err
}

// checkAgainstEncodingJSON compares appendVerdicts with the oracle on one
// list: same bytes, or an error from both.
func checkAgainstEncodingJSON(t *testing.T, vs []serve.TaskVerdict) {
	t.Helper()
	want, wantErr := encodingJSON(vs)
	prefix := []byte("kept:")
	got, err := appendVerdicts(prefix, vs)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("appendVerdicts error %v, encoding/json error %v, for %+v", err, wantErr, vs)
	}
	if err != nil {
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("appendVerdicts diverges from encoding/json:\n got  %s want %s", got, want)
	}
}

// formatRuleFloats hits every branch of encoding/json's float rule: zero
// and its negative, both sides of the 1e-6 and 1e21 cut-overs, one- and
// two-digit negative exponents (e-7 keeps its digit, e-09 loses its zero,
// e-324 keeps all three), positive exponents, and integers stored as floats.
var formatRuleFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 2.5e-100,
	1e20, 123456789012345678901, 1e21, 1.5e21, 1.5e300, 5e-324, math.MaxFloat64,
	-math.MaxFloat64, math.SmallestNonzeroFloat64, 3, 42, 1 << 53, 1e15, 100000.25,
	0.1, 1.0 / 3, 2.2250738585072014e-308, 0.000001234, 999999999999999868928,
}

// randomVerdict draws a verdict covering every field state: nil and
// non-nil Prediction, Stale/AsOfCheckpoint set and unset, negative and
// huge task IDs, and floats from the rule table or from random bits.
func randomVerdict(rng *rand.Rand) serve.TaskVerdict {
	flip := func() bool { return rng.Intn(2) == 0 }
	ids := []int{0, 1, -1, 7, 99, 12345, math.MaxInt64, math.MinInt64, -1 << 31}
	v := serve.TaskVerdict{
		TaskID: ids[rng.Intn(len(ids))], Known: flip(), Finished: flip(), Flagged: flip(),
		FlaggedAt: rng.Intn(12) - 1, Straggler: flip(), Stale: flip(),
	}
	if flip() {
		v.AsOfCheckpoint = rng.Intn(21) - 10
	}
	if flip() {
		cell := func() float64 {
			if flip() {
				return formatRuleFloats[rng.Intn(len(formatRuleFloats))]
			}
			for {
				if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
					return f
				}
			}
		}
		v.Prediction = &nurd.Prediction{Latency: cell(), Propensity: cell(), Weight: cell(), Adjusted: cell()}
	}
	return v
}

// TestAppendVerdictsMatchesEncodingJSON: the hand-written encoder emits what
// json.NewEncoder(w).Encode(vs) emits, byte for byte, and refuses what it
// refuses.
func TestAppendVerdictsMatchesEncodingJSON(t *testing.T) {
	// The oracle below only sees fields the cases set; a new omitempty
	// field would slip past it, so the shapes are counted too.
	if v, p := reflect.TypeOf(serve.TaskVerdict{}).NumField(), reflect.TypeOf(nurd.Prediction{}).NumField(); v != 9 || p != 4 {
		t.Fatalf("TaskVerdict has %d fields and Prediction %d; appendVerdicts writes 9 and 4 — teach it the new one, then update this count", v, p)
	}
	pred := func(f float64) *nurd.Prediction {
		return &nurd.Prediction{Latency: f, Propensity: 0.25, Weight: 1, Adjusted: f}
	}
	table := [][]serve.TaskVerdict{
		nil,
		{},
		{{}},
		{{TaskID: 3, Known: true}},
		{{TaskID: -1}, {TaskID: math.MaxInt64}, {TaskID: math.MinInt64}},
		{{TaskID: 1, Known: true, Finished: true, Straggler: true}},
		{{TaskID: 2, Known: true, Flagged: true, FlaggedAt: 4, Straggler: true}},
		{{TaskID: 5, Stale: true}, {TaskID: 5, AsOfCheckpoint: 3}, {TaskID: 5, Stale: true, AsOfCheckpoint: 10}},
		{{TaskID: 6, AsOfCheckpoint: -2, FlaggedAt: -1}},
		{{TaskID: 8, Known: true, Prediction: &nurd.Prediction{}}},
		{{TaskID: 9, Known: true, Prediction: &nurd.Prediction{Latency: 12.5, Propensity: 0.3, Weight: 0.3, Adjusted: 41.666666666666664}, Straggler: true, Stale: true, AsOfCheckpoint: 7}},
	}
	for _, f := range formatRuleFloats {
		table = append(table, []serve.TaskVerdict{{TaskID: 1, Known: true, Prediction: pred(f)}, {TaskID: 2, Prediction: pred(-f)}})
	}
	for _, vs := range table {
		checkAgainstEncodingJSON(t, vs)
	}

	// NaN and the infinities have no JSON form: both sides must fail, in
	// whichever cell and however deep in the list the value sits.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for cell := 0; cell < 4; cell++ {
			p := nurd.Prediction{Latency: 1, Propensity: 1, Weight: 1, Adjusted: 1}
			*[]*float64{&p.Latency, &p.Propensity, &p.Weight, &p.Adjusted}[cell] = bad
			vs := []serve.TaskVerdict{{TaskID: 1}, {TaskID: 2, Prediction: &p}, {TaskID: 3}}
			if _, err := appendVerdicts(nil, vs); err == nil {
				t.Errorf("appendVerdicts accepted %v in cell %d", bad, cell)
			}
			checkAgainstEncodingJSON(t, vs)
		}
	}

	rng := rand.New(rand.NewSource(22))
	for total := 0; total < 12000; {
		vs := make([]serve.TaskVerdict, rng.Intn(40))
		for i := range vs {
			vs[i] = randomVerdict(rng)
		}
		total += len(vs)
		checkAgainstEncodingJSON(t, vs)
	}
}

// FuzzAppendVerdicts holds one verdict built from raw bits to the same
// oracle, NaN and Inf patterns included (both sides must refuse them).
func FuzzAppendVerdicts(f *testing.F) {
	f.Add(int64(0), uint16(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(int64(-1), uint16(0xffff), math.Float64bits(1e-7), math.Float64bits(1e21), math.Float64bits(5e-324), math.Float64bits(-0.0))
	f.Add(int64(7), uint16(1<<5), math.Float64bits(math.NaN()), uint64(0), uint64(0), uint64(0))
	f.Add(int64(7), uint16(1<<5), uint64(0), uint64(0), uint64(0), math.Float64bits(math.Inf(1)))
	f.Add(int64(math.MinInt64), uint16(1<<5|1<<4), math.Float64bits(9.99e-7), math.Float64bits(1.5e300), math.Float64bits(1e-9), math.Float64bits(123456.789))
	f.Fuzz(func(t *testing.T, taskID int64, flags uint16, a, b, c, d uint64) {
		bit := func(i uint) bool { return flags>>i&1 == 1 }
		v := serve.TaskVerdict{
			TaskID: int(taskID), Known: bit(0), Finished: bit(1), Flagged: bit(2), Straggler: bit(3), Stale: bit(4),
			FlaggedAt: int(flags >> 8 & 0xf), AsOfCheckpoint: int(flags>>12) - 4,
		}
		if bit(5) {
			v.Prediction = &nurd.Prediction{
				Latency: math.Float64frombits(a), Propensity: math.Float64frombits(b),
				Weight: math.Float64frombits(c), Adjusted: math.Float64frombits(d),
			}
		}
		checkAgainstEncodingJSON(t, []serve.TaskVerdict{v})
		checkAgainstEncodingJSON(t, []serve.TaskVerdict{{TaskID: 1}, v, v})
	})
}

// memWriter is an in-memory http.ResponseWriter with nothing between the
// handler and the bytes (httptest.ResponseRecorder allocates per response).
type memWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (m *memWriter) Header() http.Header         { return m.hdr }
func (m *memWriter) WriteHeader(code int)        { m.code = code }
func (m *memWriter) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memWriter) reset() {
	clear(m.hdr)
	m.code = 0
	m.buf.Reset()
}

func queryRequest(jobID uint64, ids []int) *http.Request {
	s := make([]string, len(ids))
	for i, id := range ids {
		s[i] = strconv.Itoa(id)
	}
	return rawQueryRequest("job=" + strconv.FormatUint(jobID, 10) + "&tasks=" + strings.Join(s, ","))
}

func rawQueryRequest(raw string) *http.Request {
	return &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/query", RawQuery: raw}}
}

// TestQueryParseTable pins the parameter rules of GET /query — percent
// escapes, '+' and space trimming, which of a repeated key counts, and all
// four 400 messages — to the statuses and bodies the reflection-and-Split
// handler of the parent commit answered (recorded from it, job 7 registered
// with no events, so every verdict is the all-false one).
func TestQueryParseTable(t *testing.T) {
	sv := serve.NewServer(servetest.CheapConfig(1))
	if err := sv.StartJob(servetest.PipelineSpec(7), nil); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(sv)
	verdicts := func(ids ...int) string {
		var sb strings.Builder
		for i, id := range ids {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"TaskID":%d,"Known":false,"Finished":false,"Flagged":false,"FlaggedAt":0,"Prediction":null,"Straggler":false}`, id)
		}
		return "[" + sb.String() + "]\n"
	}
	refused := func(msg string) string {
		return `{"specs":0,"events":0,"error":"` + msg + `"}` + "\n"
	}
	for _, tc := range []struct {
		raw  string
		code int
		body string
	}{
		{"job=7&tasks=1,2", 200, verdicts(1, 2)},
		{"tasks=1,2&job=7", 200, verdicts(1, 2)},
		{"job=7&tasks=1%2C2", 200, verdicts(1, 2)},
		{"job=7&tasks=1,+2", 200, verdicts(1, 2)},
		{"job=7&tasks=1,%202", 200, verdicts(1, 2)},
		{"job=7&tasks=+1+,2", 200, verdicts(1, 2)},
		{"job=7&tasks=%31", 200, verdicts(1)},
		{"job=7&tasks=+3", 200, verdicts(3)},
		{"job=7&tasks=-1", 200, verdicts(-1)},
		{"job=7&tasks=%2D1", 200, verdicts(-1)},
		{"job=7&tasks=1,", 400, refused(`bad task id \"\"`)},
		{"job=7&tasks=,1", 400, refused(`bad task id \"\"`)},
		{"job=7&tasks=,", 400, refused(`bad task id \"\"`)},
		{"job=7&tasks=1,,2", 400, refused(`bad task id \"\"`)},
		{"job=7&tasks=1,x,2", 400, refused(`bad task id \"x\"`)},
		{"job=7&tasks=1,+x", 400, refused(`bad task id \" x\"`)},
		{"job=7&tasks=0x1", 400, refused(`bad task id \"0x1\"`)},
		{"job=7&tasks=1_0", 400, refused(`bad task id \"1_0\"`)},
		{"job=7&tasks=9999999999999999999", 400, refused(`bad task id \"9999999999999999999\"`)},
		// Repeated keys: the first value counts, empty or not.
		{"job=7&tasks=1&tasks=2", 200, verdicts(1)},
		{"job=7&tasks=&tasks=2", 400, refused("missing tasks parameter")},
		{"job=7&tasks=x&tasks=2", 400, refused(`bad task id \"x\"`)},
		{"job=7&job=8&tasks=1", 200, verdicts(1)},
		// A pair url.ParseQuery rejects is dropped, not an error of its own.
		{"job=7&tasks=1%2", 400, refused("missing tasks parameter")},
		{"job=7&tasks=1;2", 400, refused("missing tasks parameter")},
		{"job=7&tasks=", 400, refused("missing tasks parameter")},
		{"job=7", 400, refused("missing tasks parameter")},
		{"", 400, refused("missing job parameter")},
		{"tasks=1", 400, refused("missing job parameter")},
		{"job=&tasks=1", 400, refused("missing job parameter")},
		{"job=x&tasks=1", 400, refused(`bad job parameter \"x\"`)},
		{"job=-1&tasks=1", 400, refused(`bad job parameter \"-1\"`)},
		{"job=+7&tasks=1", 400, refused(`bad job parameter \" 7\"`)},
		{"job=18446744073709551616&tasks=1", 400, refused(`bad job parameter \"18446744073709551616\"`)},
		{"job=8&tasks=1", 404, refused("serve: query for job 8: unknown job")},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, rawQueryRequest(tc.raw))
		if rec.Code != tc.code || rec.Body.String() != tc.body {
			t.Errorf("GET /query?%s: %d %q, want %d %q", tc.raw, rec.Code, rec.Body.String(), tc.code, tc.body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET /query?%s: Content-Type %q", tc.raw, ct)
		}
	}
}

// midRunServer registers one NURD-predicted job per given task count and
// feeds each its stream up to checkpoint tick 4 of 10, where a model has
// been published and a good share of tasks is still running: the state /query exists
// to be asked about.
func midRunServer(t testing.TB, seed uint64, tasks ...int) (*serve.Server, []*trace.Job) {
	t.Helper()
	sv := serve.NewServer(serve.Config{Shards: 2})
	var jobs []*trace.Job
	for i, n := range tasks {
		cfg := trace.DefaultGoogleConfig(seed + uint64(i))
		cfg.MinTasks, cfg.MaxTasks = n, n
		js, sims := servetest.Jobs(t, cfg, 1)
		// Every generator numbers its first job alike; keep the IDs apart.
		js[0].ID += uint64(i) * 1000
		s, _ := nurdSeed(t, seed, i)
		if err := sv.StartJob(serve.SpecFor(sims[0], s), nil); err != nil {
			t.Fatal(err)
		}
		events := serve.JobEvents(js[0], sims[0])
		cut := len(events)
		for k := range events {
			if events[k].Tick > 4 {
				cut = k
				break
			}
		}
		if err := servetest.IngestBatch(sv, events[:cut]); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, js[0])
	}
	return sv, jobs
}

// TestQueryHandlerAllocs: a whole-job query allocates a small constant plus
// what jobState.verdict allocates per *running* task — the *nurd.Prediction
// it returns; nurd.Model.Predict's log-feature row is on its stack — and
// nothing else that grows with the task count: no id strings, no verdict
// slice, no encoder state, no output buffer.
//
// Measured on the 100-task fixture (26 running): 31 allocations per call
// (26 + 5: url.Values' map, its two value slices and an unescape, and the
// Content-Type header entry); 57 while Predict allocated the log-feature
// row, 72 and 13.8 KB before the append-style encoder (a second ParseQuery,
// strings.Split's 100 strings, the 100-verdict slice and encoding/json's
// buffer on top). A second allocation per running task adds 26 and fails the
// bound, one per task 100.
func TestQueryHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	sv, jobs := midRunServer(t, 91, 100)
	job := jobs[0]
	vs, err := sv.Query(job.ID, servetest.AllTaskIDs(job.NumTasks())[1:])
	if err != nil {
		t.Fatal(err)
	}
	running := 0
	for _, v := range vs {
		if v.Prediction != nil {
			running++
		}
	}
	if running < 20 {
		t.Fatalf("only %d of %d tasks carry a prediction; the fixture no longer exercises the float path", running, len(vs))
	}
	want, err := encodingJSON(vs)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(sv)
	req := queryRequest(job.ID, servetest.AllTaskIDs(job.NumTasks())[1:])
	w := &memWriter{hdr: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() {
		w.reset()
		h.ServeHTTP(w, req)
	})
	if w.code != http.StatusOK || !bytes.Equal(w.buf.Bytes(), want) {
		t.Fatalf("whole-job query answered %d, body equal to encoding/json's: %v", w.code, bytes.Equal(w.buf.Bytes(), want))
	}
	const fixed, slack = 5, 3 // measured; see above
	if limit := float64(running + fixed + slack); allocs > limit {
		t.Errorf("whole-job query of %d tasks (%d running): %.0f allocations per call, want <= %.0f", len(vs), running, allocs, limit)
	}
	t.Logf("%d tasks, %d running: %.0f allocations per call", len(vs), running, allocs)
}

// BenchmarkEncodeVerdicts prices the two encoders per appended byte (the
// README "Round four" budget) on a whole-job answer in its two shapes: mid
// run with a published model (26 of 100 verdicts carry four floats), and
// the same answer before any model is published (every Prediction null —
// the shape the benchmark's query sweep asks for).
func BenchmarkEncodeVerdicts(b *testing.B) {
	sv, jobs := midRunServer(b, 91, 100)
	midRun, err := sv.Query(jobs[0].ID, servetest.AllTaskIDs(jobs[0].NumTasks())[1:])
	if err != nil {
		b.Fatal(err)
	}
	noModel := append([]serve.TaskVerdict(nil), midRun...)
	for i := range noModel {
		noModel[i].Prediction = nil
	}
	for _, shape := range []struct {
		name string
		vs   []serve.TaskVerdict
	}{{"mid-run", midRun}, {"no-model", noModel}} {
		b.Run(shape.name+"/append", func(b *testing.B) {
			var out []byte
			for i := 0; i < b.N; i++ {
				if out, err = appendVerdicts(out[:0], shape.vs); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(out)))
		})
		b.Run(shape.name+"/encoding-json", func(b *testing.B) {
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(shape.vs); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}

// TestQueryConcurrentBodiesMatchSerial: 8 goroutines query 4 jobs of
// different sizes through one handler at once, and every body must equal
// the one computed serially beforehand. Run under -race this is the guard
// for the pooled scratch: a buffer returned to the pool before Write
// finished, or two calls sharing a slab, shows as a wrong body or a race.
func TestQueryConcurrentBodiesMatchSerial(t *testing.T) {
	sv, jobs := midRunServer(t, 57, 30, 47, 64, 90)
	h := NewHandler(sv)
	reqs := make([]*http.Request, len(jobs))
	want := make([][]byte, len(jobs))
	for i, job := range jobs {
		ids := servetest.AllTaskIDs(job.NumTasks())
		vs, err := sv.Query(job.ID, ids)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = encodingJSON(vs); err != nil {
			t.Fatal(err)
		}
		reqs[i] = queryRequest(job.ID, ids)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := &memWriter{hdr: http.Header{}}
			for k := 0; k < 200; k++ {
				i := (g + k) % len(jobs)
				w.reset()
				h.ServeHTTP(w, reqs[i])
				if w.code != http.StatusOK || !bytes.Equal(w.buf.Bytes(), want[i]) {
					t.Errorf("goroutine %d call %d: job %d answered %d with a body that differs from the serial one", g, k, jobs[i].ID, w.code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// verdictBackend is a Backend that answers every query with fixed verdicts.
type verdictBackend struct {
	Backend
	vs []serve.TaskVerdict
}

func (verdictBackend) Config() serve.Config { return serve.Config{} }
func (b verdictBackend) QueryAppend(dst []serve.TaskVerdict, _ uint64, _ []int) ([]serve.TaskVerdict, error) {
	return append(dst, b.vs...), nil
}

// TestQueryUnencodableVerdictIs500: a verdict with no JSON form is found
// before the status line is written, so the client gets a 500 with the
// redacted JSON error body — the parent answered 200 with an empty body —
// and the half-encoded buffer never reaches a later response.
// genericBody is the redacted body every 500 carries.
const genericBody = `{"specs":0,"events":0,"error":"internal server error"}` + "\n"

func TestQueryUnencodableVerdictIs500(t *testing.T) {
	good := []serve.TaskVerdict{{TaskID: 1, Known: true, Prediction: &nurd.Prediction{Latency: 2, Propensity: 0.5, Weight: 0.5, Adjusted: 4}}}
	bad := []serve.TaskVerdict{good[0], {TaskID: 2, Known: true, Prediction: &nurd.Prediction{Latency: 2, Propensity: 0, Weight: 0, Adjusted: math.Inf(1)}}}
	rec := httptest.NewRecorder()
	NewHandler(verdictBackend{vs: bad}).ServeHTTP(rec, rawQueryRequest("job=1&tasks=1,2"))
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != genericBody {
		t.Fatalf("+Inf verdict: %d %q, want 500 %q", rec.Code, rec.Body.String(), genericBody)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("500 Content-Type %q", ct)
	}
	rec = httptest.NewRecorder()
	NewHandler(verdictBackend{vs: good}).ServeHTTP(rec, rawQueryRequest("job=1&tasks=1"))
	want, _ := encodingJSON(good)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("query after the failed one: %d %q, want 200 %q", rec.Code, rec.Body.String(), want)
	}
}

// TestWriteJSONEncodeErrorIs500: the cold routes share the rule — encode
// first, and a value encoding/json refuses is a 500 with the generic body,
// not a 200 with nothing after the header.
func TestWriteJSONEncodeErrorIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"gauge": math.NaN()})
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != genericBody {
		t.Fatalf("NaN body: %d %q, want 500 %q", rec.Code, rec.Body.String(), genericBody)
	}
}

// TestQueryWriteFailureEndsHandler: a failed Write ends the handler quietly
// and the scratch it used still serves the next call correctly.
func TestQueryWriteFailureEndsHandler(t *testing.T) {
	sv := serve.NewServer(servetest.CheapConfig(1))
	if err := sv.StartJob(servetest.PipelineSpec(7), nil); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(sv)
	gone := &failAfterWriter{} // limit 0: the client left before the first byte
	h.ServeHTTP(gone, rawQueryRequest("job=7&tasks=0,1,2"))
	if len(gone.statuses) != 1 || gone.statuses[0] != http.StatusOK || gone.writeErrs != 1 {
		t.Fatalf("statuses %v, %d failed writes; want one 200 and one failed write", gone.statuses, gone.writeErrs)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, rawQueryRequest("job=7&tasks=3"))
	vs, err := sv.Query(7, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := encodingJSON(vs)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("query after a failed write: %d %q, want %q", rec.Code, rec.Body.String(), want)
	}
}

// TestQueryScratchPoolBound: a scratch grown by an oversized tasks= list is
// dropped, and one the pool keeps carries no Prediction pointers.
func TestQueryScratchPoolBound(t *testing.T) {
	p := &nurd.Prediction{Latency: 1, Propensity: 1, Weight: 1, Adjusted: 1}
	small := &queryScratch{ids: make([]int, 3, maxPooledQueryTasks), vs: []serve.TaskVerdict{{Prediction: p}, {Prediction: p}}}
	small.release()
	for i, v := range small.vs {
		if v.Prediction != nil {
			t.Errorf("pooled slab keeps verdict %d's Prediction reachable", i)
		}
	}
	// sync.Pool gives no way to ask whether it holds a value, so the bound
	// is observed through the one effect of pooling: the slab is cleared.
	huge := &queryScratch{ids: make([]int, 3, maxPooledQueryTasks+1), vs: []serve.TaskVerdict{{Prediction: p}}}
	huge.release()
	if huge.vs[0].Prediction == nil {
		t.Error("an oversized scratch was prepared for the pool instead of dropped")
	}
}
