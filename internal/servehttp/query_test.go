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
// non-nil Prediction, negative and huge task IDs, and floats from the rule
// table or from random bits.
func randomVerdict(rng *rand.Rand) serve.TaskVerdict {
	flip := func() bool { return rng.Intn(2) == 0 }
	ids := []int{0, 1, -1, 7, 99, 12345, math.MaxInt64, math.MinInt64, -1 << 31}
	v := serve.TaskVerdict{
		TaskID: ids[rng.Intn(len(ids))], Known: flip(), Finished: flip(), Flagged: flip(),
		FlaggedAt: rng.Intn(12) - 1, Straggler: flip(),
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
	if v, p := reflect.TypeOf(serve.TaskVerdict{}).NumField(), reflect.TypeOf(nurd.Prediction{}).NumField(); v != 7 || p != 4 {
		t.Fatalf("TaskVerdict has %d fields and Prediction %d; appendVerdicts writes 7 and 4 — teach it the new one, then update this count", v, p)
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
		{{TaskID: 8, Known: true, Prediction: &nurd.Prediction{}}},
		{{TaskID: 9, Known: true, Prediction: &nurd.Prediction{Latency: 12.5, Propensity: 0.3, Weight: 0.3, Adjusted: 41.666666666666664}, Straggler: true}},
	}
	for _, f := range formatRuleFloats {
		table = append(table, []serve.TaskVerdict{{TaskID: 1, Known: true, Prediction: pred(f)}, {TaskID: 2, Prediction: pred(-f)}})
	}
	// The answer-less tail table (FlaggedAt 0 to 9) across its whole
	// domain and past both edges: each setting of the four booleans at
	// FlaggedAt -1, 0, 1, 9, 10 and 1000, with no Prediction.
	for bits := 0; bits < 16; bits++ {
		for _, at := range []int{-1, 0, 1, 9, 10, 1000} {
			table = append(table, []serve.TaskVerdict{{
				TaskID: bits*1000 + at, Known: bits&1 != 0, Finished: bits&2 != 0, Flagged: bits&4 != 0,
				Straggler: bits&8 != 0, FlaggedAt: at,
			}})
		}
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
			TaskID: int(taskID), Known: bit(0), Finished: bit(1), Flagged: bit(2), Straggler: bit(3),
			FlaggedAt: int(flags >> 8 & 0xf),
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

// TestReportParseTable pins GET /report's job parameter rules — the same
// reader /query uses — to the statuses and bodies the url.Values handler
// answered (recorded from it, job 7 registered with no events).
func TestReportParseTable(t *testing.T) {
	sv := serve.NewServer(servetest.CheapConfig(1))
	if err := sv.StartJob(servetest.PipelineSpec(7), nil); err != nil {
		t.Fatal(err)
	}
	rep, err := sv.Report(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	report := string(b) + "\n"
	refused := func(msg string) string {
		return `{"specs":0,"events":0,"error":"` + msg + `"}` + "\n"
	}
	h := NewHandler(sv)
	for _, tc := range []struct {
		raw  string
		code int
		body string
	}{
		{"job=7", 200, report},
		{"", 400, refused("missing job parameter")},
		{"tasks=1", 400, refused("missing job parameter")},
		{"job=", 400, refused("missing job parameter")},
		{"job=x", 400, refused(`bad job parameter \"x\"`)},
		{"job=-1", 400, refused(`bad job parameter \"-1\"`)},
		{"job=7&job=8", 200, report},
		{"job=8&job=7", 404, refused("serve: report for job 8: unknown job")},
		{"job=&job=7", 400, refused("missing job parameter")},
		{"job=%37", 200, report},
		{"jo%62=7", 200, report},
		{"job=+7", 400, refused(`bad job parameter \" 7\"`)},
		{"job=7+", 400, refused(`bad job parameter \"7 \"`)},
		{"job=7;x=1", 400, refused("missing job parameter")},
		{"x=1;y=2&job=7", 200, report},
		{"job=%3", 400, refused("missing job parameter")},
		{"job=%3&job=7", 200, report},
		{"job=%zz7&job=8", 404, refused("serve: report for job 8: unknown job")},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/report", RawQuery: tc.raw}})
		if rec.Code != tc.code || rec.Body.String() != tc.body {
			t.Errorf("GET /report?%s: %d %q, want %d %q", tc.raw, rec.Code, rec.Body.String(), tc.code, tc.body)
		}
	}
}

// atoiTaskIDs is the task-list walk appendTaskIDs is held to: the handler's
// loop before the plain-decimal fast path.
func atoiTaskIDs(list string) ([]int, error) {
	var ids []int
	for rest, more := list, true; more; {
		var s string
		s, rest, more = strings.Cut(rest, ",")
		id, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return ids, fmt.Errorf("bad task id %q", s)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// FuzzQueryArgs holds GET /query's parse stage to its oracles: for any raw
// query string, queryArgs returns what url.ParseQuery followed by
// Get("job") and Get("tasks") returns, and appendTaskIDs reads that tasks
// value as the strings.Cut + strconv.Atoi walk does, IDs and error alike.
func FuzzQueryArgs(f *testing.F) {
	for _, raw := range []string{
		"", "job=7&tasks=1,2", "tasks=1,2&job=7", "job=7&tasks=1%2C2", "job=7&tasks=+1+,2",
		"job=7&tasks=1&tasks=2", "job=7&tasks=&tasks=2", "job=7&tasks=1%2&tasks=3",
		"job=7;x&tasks=1", "jo%62=7&task%73=1", "job&tasks", "=7&&job==7", "job=%zz&job=8",
		"job=%E2%82%AC&tasks=%ff", "job=7+&tasks=%20",
		"job=7&tasks=0,1,22,333,007,-4,+5,%206,1_0,0x1,", "job=7&tasks=,,",
		"job=7&tasks=123456789012345678,1234567890123456789,99999999999999999999",
		"job=7&tasks=9223372036854775807,-9223372036854775808,9223372036854775808",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw)
		job, tasks := queryArgs(raw)
		if job != q.Get("job") || tasks != q.Get("tasks") {
			t.Fatalf("queryArgs(%q) = %q, %q; url.ParseQuery reads %q, %q", raw, job, tasks, q.Get("job"), q.Get("tasks"))
		}
		got, err := appendTaskIDs(nil, tasks)
		want, wantErr := atoiTaskIDs(tasks)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && !reflect.DeepEqual(got, want)) {
			t.Fatalf("appendTaskIDs(%q) = %v, %v; the Atoi walk reads %v, %v", tasks, got, err, want, wantErr)
		}
	})
}

// midRunServer registers one NURD-predicted job per given task count and
// feeds each its stream up to checkpoint tick lastTick of 10. At tick 4 a
// model has been published and a good share of tasks is still running: the
// state /query exists to be asked about. At tick 0 tasks run but no
// checkpoint has fired, so no model is published and every Prediction is
// null.
func midRunServer(t testing.TB, seed uint64, lastTick int, tasks ...int) (*serve.Server, []*trace.Job) {
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
			if events[k].Tick > lastTick {
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

// TestQueryHandlerAllocs: a whole-job query allocates a small constant,
// whatever the number of tasks and of running ones: the call's Prediction
// slab (one cell per running task asked about, one allocation for all) and
// the Content-Type header entry. No url.Values, no id strings, no verdict
// slice, no per-verdict Prediction, no encoder state, no output buffer.
//
// Measured on the 100-task fixture (28 running): 2 allocations per call; 33
// (28 + 5: url.Values' map, its two value slices and an unescape, and the
// Content-Type header entry) while jobState.verdict allocated each running
// task's Prediction and the parameters went through url.ParseQuery, and 72
// and 13.8 KB before the append-style encoder. Any per-task allocation adds
// at least 28 and fails the bound.
func TestQueryHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	sv, jobs := midRunServer(t, 91, 4, 100)
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
	const limit = 4 // measured 2; see above
	if allocs > limit {
		t.Errorf("whole-job query of %d tasks (%d running): %.0f allocations per call, want <= %d", len(vs), running, allocs, limit)
	}
	t.Logf("%d tasks, %d running: %.0f allocations per call", len(vs), running, allocs)
}

// BenchmarkQueryHandler prices one whole-job GET /query through NewHandler
// — parse, answer, encode — on the 100-task fixture in its two shapes: no
// model published yet (every Prediction null), and mid run with 28 of 100
// verdicts carrying a Prediction under a published model. One op is one
// call, so ns/op and allocs/op read per call; ns/verdict divides by the
// verdicts a call answers, and predicted/verdict is the share of them that
// carry a Prediction (the rest take the encoder's answer-less path).
func BenchmarkQueryHandler(b *testing.B) {
	for _, shape := range []struct {
		name     string
		lastTick int
	}{{"no-model", 0}, {"mid-run", 4}} {
		b.Run(shape.name, func(b *testing.B) {
			sv, jobs := midRunServer(b, 91, shape.lastTick, 100)
			ids := servetest.AllTaskIDs(jobs[0].NumTasks())[1:]
			vs, err := sv.Query(jobs[0].ID, ids)
			if err != nil {
				b.Fatal(err)
			}
			running := 0
			for _, v := range vs {
				if v.Prediction != nil {
					running++
				}
			}
			if (running > 0) != (shape.lastTick > 0) {
				b.Fatalf("%s: %d of %d verdicts carry a prediction", shape.name, running, len(vs))
			}
			h := NewHandler(sv)
			req := queryRequest(jobs[0].ID, ids)
			w := &memWriter{hdr: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.reset()
				h.ServeHTTP(w, req)
			}
			if w.code != http.StatusOK {
				b.Fatalf("%s: answered %d", shape.name, w.code)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/verdict")
			b.ReportMetric(float64(running)/float64(len(vs)), "predicted/verdict")
		})
	}
}

// BenchmarkEncodeVerdicts prices the two encoders per appended byte (the
// README "Round four" budget) on a whole-job answer in its two shapes: mid
// run with a published model (26 of 100 verdicts carry four floats), and
// the same answer before any model is published (every Prediction null —
// the shape the benchmark's query sweep asks for).
func BenchmarkEncodeVerdicts(b *testing.B) {
	sv, jobs := midRunServer(b, 91, 4, 100)
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
	sv, jobs := midRunServer(t, 57, 4, 30, 47, 64, 90)
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
