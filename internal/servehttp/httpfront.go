package servehttp

// httpfront.go is the network ingestion front end: a plain net/http handler
// that speaks the wire format (package wire) on the write path and JSON on the
// read path, so external monitoring pipelines can feed a serve.Server over TCP
// and operators can query it with curl. The handler is stateless — every
// route delegates straight to the serve.Server, whose sharded registry already
// serializes concurrent access — so any number of requests may be in flight
// at once (test-enforced under the race detector).
//
// Routes:
//
//	POST /ingest    body: wire stream (header + spec/event/drop frames),
//	                applied by serve.Server.Feed. Specs register jobs
//	                through the server's predictor factory, events stream
//	                in body order, drops discard finished jobs. Responds
//	                with JSON counts; on error, the counts applied before
//	                it. Either reply is written only after everything the
//	                body applied is in the write-ahead log: frames are
//	                staged as they decode and committed once, one log
//	                write per body. An event's log record is the frame as
//	                it arrived, CRC included, checked once.
//	GET  /query     ?job=ID&tasks=0,1,2 — batched verdicts as JSON, the
//	                hot read: one pass over the raw query string
//	                (queryArgs, no url.Values), pooled scratch the server
//	                writes each verdict into in place, one Prediction slab
//	                per call and a hand-written encoder (verdictjson.go) in
//	                place of encoding/json, which writes an answer-less
//	                verdict as its ID plus one precomputed tail; a call
//	                allocates a constant number of times, whatever the
//	                task count.
//	GET  /report    ?job=ID — the job's JobReport as JSON.
//	GET  /stats     server-wide Stats as JSON. Servers running with a WAL
//	                include a "WAL" object (segments, next_lsn, appends,
//	                pending_bytes, fsync_lag_ns, retired_segments, wedged)
//	                so operators can watch durability lag alongside
//	                traffic.
//	GET  /metrics   the same view as /stats in the Prometheus text
//	                format, one metric per field (metrics.go).
//	GET  /snapshot  a checkpoint's base as a binary wire stream: a dump of
//	                every live job's spec and event frames, loadable by
//	                RestoreServer, nurdserve -replay or POST /ingest.
//	                Needs a write-ahead log: a server without one (no
//	                -wal) answers 409.
//	GET  /healthz   liveness: 200 whenever the process serves HTTP.
//	GET  /readyz    readiness: 503 with Retry-After
//	                serve.RetryAfterOutageSeconds while the write-ahead
//	                log is wedged (Stats().WAL.Wedged), 200 otherwise.
//	                Recovery is done by construction: nurdserve builds
//	                this handler only after serve.Recover returns.
//
// Error mapping: malformed wire bodies and unparseable parameters are 400;
// events or queries for unregistered jobs are 404 (serve.ErrUnknownJob);
// registrations beyond the server's job/task budget, and requests refused
// by per-client rate limiting (Config.ClientRate), are 429; a wedged or
// closed write-ahead log is 503 (wal.ErrFailed/wal.ErrClosed — retry after
// the operator intervenes). 429 and 503 responses carry a Retry-After
// header (seconds): a rate-limit refusal hints the wait until the client's
// own bucket refills, capped at maxRetryAfterSeconds; a budget refusal
// carries a fixed budgetRetryAfterSeconds, since only a drop frees budget
// and no queue drain does; a 503 carries the fixed, longer
// serve.RetryAfterOutageSeconds because an outage clears on operator
// timescales. Heartbeat frames shed
// under overload (serve.ErrShed, or an empty rate-limit bucket) do NOT fail the
// batch: they are counted in IngestResult.Shed and the batch continues —
// shedding is policy, not an error. Protocol violations the server rejects
// (duplicate registration, out-of-range tasks, schema mismatches) are 422.
// Client-fault (4xx) bodies carry the typed error detail; server-fault
// (5xx) bodies are redacted to a generic message so internal paths and
// wrapped diagnostics never reach remote clients (operators read them via
// /stats and the process's own stderr instead). Every JSON body is encoded
// before its status line is written, so a value with no JSON form (a NaN or
// infinite float) is a 500, never a 200 with nothing after the header.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Backend is the serving surface the HTTP front consumes: *serve.Server
// implements it, and a test fakes it to serve a verdict no real job yields.
type Backend interface {
	// Feed applies a request body's frames; POST /ingest is Feed plus the
	// reply (see serve.Server.Feed).
	Feed(rd *wire.Reader, admit func(sheddable bool) bool) (serve.Fed, error)
	// QueryAppend appends one verdict per task ID to dst and returns the
	// extended slice, writing each verdict in place in dst's spare
	// capacity. GET /query hands it a pooled slab, so the verdicts must be
	// copies the backend never touches again. A non-nil
	// Prediction points into the call's own prediction slab; it is
	// read-only, and GET /query drops it when it clears the slab.
	QueryAppend(dst []serve.TaskVerdict, jobID uint64, taskIDs []int) ([]serve.TaskVerdict, error)
	Report(jobID uint64) (*serve.JobReport, error)
	Stats() serve.Stats
	Config() serve.Config
	// Snapshot streams the backend's durable image (serve.ErrNoWAL without
	// a write-ahead log); GET /snapshot serves it.
	Snapshot(w io.Writer) error
}

// wireContentType labels wire-format request and response bodies.
const wireContentType = "application/x-nurd-wire"

// maxIngestBody bounds one ingest request body (1 GiB): far above any sane
// batch, low enough that a hostile Content-Length cannot wedge the server.
const maxIngestBody = 1 << 30

// IngestResult is the JSON response of POST /ingest.
type IngestResult struct {
	// Specs, Events and Drops count the frames applied (on error: before
	// it).
	Specs  int `json:"specs"`
	Events int `json:"events"`
	Drops  int `json:"drops,omitempty"`
	// Shed counts heartbeat frames refused by load shedding (saturated
	// ingest queue or empty rate-limit bucket). Shed frames do not fail the
	// batch; a client that must deliver an observation resends it, but the
	// intended reaction is none — the task's next heartbeat supersedes it.
	Shed int `json:"shed,omitempty"`
	// Error carries the failure, if any.
	Error string `json:"error,omitempty"`
}

// NewHandler exposes a backend over HTTP. See the package comment at the top of
// httpfront.go for routes and error mapping.
func NewHandler(sv Backend) http.Handler {
	f := &front{sv: sv}
	if sv.Config().ClientRate > 0 {
		f.limits = newClientLimiter(sv.Config().ClientRate)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", f.ingest)
	mux.HandleFunc("/query", f.query)
	mux.HandleFunc("/report", f.report)
	mux.HandleFunc("/stats", f.stats)
	mux.HandleFunc("/metrics", f.metrics)
	mux.HandleFunc("/snapshot", f.snapshot)
	mux.HandleFunc("/healthz", healthz)
	mux.HandleFunc("/readyz", f.readyz)
	return mux
}

type front struct {
	sv Backend
	// limits is the per-client token-bucket rate limiter, nil unless
	// Config.ClientRate is set. It lives on the front, not the serve.Server: rate
	// limiting is a transport-edge policy (in-process callers are trusted).
	limits *clientLimiter
}

// writeJSON answers code with v's JSON encoding. The body is encoded before
// the status line is written, so a value with no JSON form (a NaN gauge) is
// a 500 with the redacted body rather than a 200 with an empty one.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, code, buf.Bytes())
}

// writeEncodeError answers a body that could not be encoded: the redacted
// 500 every server fault gets (an IngestResult always encodes).
func writeEncodeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	writeJSON(w, code, IngestResult{Error: errBody(code, err)})
}

// writeBody is the one place a JSON response leaves the front, already
// encoded: header, status, one Write.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed Write means the client is gone: the status is already out
	// and nobody is left to tell, so returning is the only thing to do.
	_, _ = w.Write(body)
}

// writeErrJSON is writeJSON for failure responses. Throttling (429) and
// outage (503) responses carry a Retry-After header so well-behaved clients
// back off on a hint instead of hammering an overloaded front end — without
// it, RFC-compliant retry loops default to immediate retry and amplify the
// overload they are reacting to. retryAfter is the hint in seconds (0 =
// no header); callers derive it per class with retryHint.
func writeErrJSON(w http.ResponseWriter, code, retryAfter int, v any) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, code, v)
}

// budgetRetryAfterSeconds is the Retry-After hint of a 429 for a used-up
// registration budget (serve.ErrOverloaded). Budget returns only when a job
// is dropped, which no wait on the server's side brings about, so the hint
// is the shortest one and fixed.
const budgetRetryAfterSeconds = 1

// retryHint picks the Retry-After value for an error class: a budget 429
// gets budgetRetryAfterSeconds, an outage (503) the fixed, longer
// operator-timescale hint. Everything else carries none. (A rate-limit 429
// carries its bucket's own refill wait; see clientLimiter.admit.)
func retryHint(code int) int {
	switch code {
	case http.StatusTooManyRequests:
		return budgetRetryAfterSeconds
	case http.StatusServiceUnavailable:
		return serve.RetryAfterOutageSeconds
	}
	return 0
}

// errBody renders the response body for a failed request. Client-fault
// codes (4xx) keep the typed error detail — the caller needs it to fix the
// request — but server-fault codes (5xx) are redacted to a generic message:
// their errors wrap internal state (filesystem paths, WAL wrap text,
// operator-facing diagnostics) that belongs in the server's logs, not on
// the wire to arbitrary remote clients.
func errBody(code int, err error) string {
	if code < 500 {
		return err.Error()
	}
	if code == http.StatusServiceUnavailable {
		return "service unavailable: the durability log is not accepting writes; retry after operator intervention"
	}
	return "internal server error"
}

// errCode classifies a serving error for transport. readErr marks the
// request body's own read failure, where anything unrecognized is the
// transport's fault (400), not a server-side protocol violation (422).
func errCode(err error, readErr bool) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, serve.ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, wal.ErrFailed), errors.Is(err, wal.ErrClosed):
		// A wedged write-ahead log is a server-side outage (disk full,
		// I/O error, shutdown), not a client fault: 503 tells pipelines
		// to retry/alert instead of discarding the batch as malformed.
		return http.StatusServiceUnavailable
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, wire.ErrBadMagic), errors.Is(err, wire.ErrVersion),
		errors.Is(err, wire.ErrTruncated), errors.Is(err, wire.ErrCorrupt),
		errors.Is(err, io.ErrNoProgress):
		return http.StatusBadRequest
	case readErr:
		return http.StatusBadRequest
	default:
		return http.StatusUnprocessableEntity
	}
}

func (f *front) ingest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, IngestResult{Error: "POST only"})
		return
	}
	// Rate-limit admission happens before the body is read: a refused
	// request has NOTHING applied, so resending the identical batch is
	// always safe. That atomicity is deliberate — mid-batch 429s would
	// leave a half-applied batch no client could safely retry. Mid-batch,
	// an empty bucket only sheds heartbeats (recorded in res.Shed); every
	// other frame runs the bucket negative and the debt is settled here, at
	// the next request's admission.
	var admit func(sheddable bool) bool
	if f.limits != nil {
		client := clientID(r)
		if wait, ok := f.limits.admit(client); !ok {
			writeErrJSON(w, http.StatusTooManyRequests, wait,
				IngestResult{Error: fmt.Sprintf("rate limit: client %q exceeds %g frames/s; retry after %ds", client, f.limits.rate, wait)})
			return
		}
		admit = func(sheddable bool) bool { return f.limits.charge(client, sheddable) }
	}
	src := &bodySource{r: http.MaxBytesReader(w, r.Body, maxIngestBody)}
	// Feed stages every frame as it applies and commits once, so whatever
	// the body applied is in the write-ahead log before any reply — the 200
	// and the mid-body error (which reports the counts applied before it)
	// alike.
	fed, err := f.sv.Feed(wire.NewReader(src), admit)
	res := IngestResult{Specs: fed.Specs, Events: fed.Events, Drops: fed.Drops, Shed: fed.Shed}
	if err == nil {
		writeJSON(w, http.StatusOK, res)
		return
	}
	code := errCode(err, src.err != nil && errors.Is(err, src.err))
	res.Error = errBody(code, err)
	writeErrJSON(w, code, retryHint(code), res)
}

// bodySource is a request body that remembers how its reading failed: a
// body the front cannot read is the client's fault (400), never a protocol
// violation (422), whatever the error.
type bodySource struct {
	r   io.Reader
	err error
}

func (s *bodySource) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err != nil && err != io.EOF {
		s.err = err
	}
	return n, err
}

// queryArgs returns the job and tasks parameters of a raw query string,
// what url.ParseQuery(raw) followed by Get("job") and Get("tasks") returns,
// in one pass that builds no map: pairs split on '&'; a pair holding ';' or
// a bad escape is dropped; the first surviving occurrence of a key wins; and
// only a pair holding '%' or '+' is unescaped.
func queryArgs(raw string) (job, tasks string) {
	var haveJob, haveTasks bool
	for raw != "" && !(haveJob && haveTasks) {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		if strings.IndexByte(pair, '%') >= 0 || strings.IndexByte(pair, '+') >= 0 {
			var err error
			if key, err = url.QueryUnescape(key); err != nil {
				continue
			}
			if value, err = url.QueryUnescape(value); err != nil {
				continue
			}
		}
		switch {
		case key == "job" && !haveJob:
			job, haveJob = value, true
		case key == "tasks" && !haveTasks:
			tasks, haveTasks = value, true
		}
	}
	return job, tasks
}

// jobParam parses the mandatory ?job= query parameter.
func jobParam(raw string) (uint64, error) {
	if raw == "" {
		return 0, fmt.Errorf("missing job parameter")
	}
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad job parameter %q", raw)
	}
	return id, nil
}

// plainTaskID parses the task ID at the front of a tasks list when it is a
// plain decimal of at most 18 digits — every ID a client sends in practice,
// and too short to overflow an int — ending the list or followed by ','.
// It returns the ID and its length; anything else (signs, spaces, longer or
// empty elements) reports false and is left to strconv.Atoi.
func plainTaskID(list string) (id, n int, ok bool) {
	for n < len(list) && n <= 18 {
		d := list[n] - '0'
		if d > 9 {
			break
		}
		id = id*10 + int(d)
		n++
	}
	ok = n > 0 && n <= 18 && (n == len(list) || list[n] == ',')
	return id, n, ok
}

// appendTaskIDs appends the IDs of a comma-separated tasks list to dst in
// one walk: plainTaskID reads a plain element, and any other element is
// strconv.Atoi(strings.TrimSpace(element)), whose failure is the error.
func appendTaskIDs(dst []int, list string) ([]int, error) {
	for {
		id, n, ok := plainTaskID(list)
		if !ok {
			s, _, _ := strings.Cut(list, ",")
			var err error
			if id, err = strconv.Atoi(strings.TrimSpace(s)); err != nil {
				return dst, fmt.Errorf("bad task id %q", s)
			}
			n = len(s)
		}
		dst = append(dst, id)
		if n == len(list) {
			return dst, nil
		}
		list = list[n+1:]
	}
}

// queryScratch is one GET /query call's working storage — the parsed task
// IDs, the verdict slab the backend appends into and the encoded body —
// pooled so a steady-state call allocates nothing that grows with the task
// count.
type queryScratch struct {
	ids []int
	vs  []serve.TaskVerdict
	out []byte
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// maxPooledQueryTasks bounds the scratch the pool keeps (about 64 KiB of
// body at ~110 bytes a verdict, twice that when each carries a Prediction;
// ids and slab are smaller and grow with the same count): one huge tasks=
// list is served and then garbage, not pinned.
const maxPooledQueryTasks = 512

// release returns sc to the pool once the response has been written.
func (sc *queryScratch) release() {
	if cap(sc.ids) > maxPooledQueryTasks {
		return
	}
	// The slab's Prediction pointers would otherwise keep a dropped job's
	// predictions reachable for as long as the pool keeps sc.
	clear(sc.vs)
	queryScratchPool.Put(sc)
}

func (f *front) query(w http.ResponseWriter, r *http.Request) {
	rawJob, rawTasks := queryArgs(r.URL.RawQuery)
	id, err := jobParam(rawJob)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, IngestResult{Error: err.Error()})
		return
	}
	if rawTasks == "" {
		writeJSON(w, http.StatusBadRequest, IngestResult{Error: "missing tasks parameter"})
		return
	}
	sc := queryScratchPool.Get().(*queryScratch)
	defer sc.release()
	if sc.ids, err = appendTaskIDs(sc.ids[:0], rawTasks); err != nil {
		writeJSON(w, http.StatusBadRequest, IngestResult{Error: err.Error()})
		return
	}
	if sc.vs, err = f.sv.QueryAppend(sc.vs[:0], id, sc.ids); err != nil {
		code := errCode(err, false)
		writeErrJSON(w, code, retryHint(code), IngestResult{Error: errBody(code, err)})
		return
	}
	if sc.out, err = appendVerdicts(sc.out[:0], sc.vs); err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, sc.out)
}

func (f *front) report(w http.ResponseWriter, r *http.Request) {
	rawJob, _ := queryArgs(r.URL.RawQuery)
	id, err := jobParam(rawJob)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, IngestResult{Error: err.Error()})
		return
	}
	rep, err := f.sv.Report(id)
	if err != nil {
		code := errCode(err, false)
		writeErrJSON(w, code, retryHint(code), IngestResult{Error: errBody(code, err)})
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (f *front) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.statsView())
}

// statsView is the server-wide view GET /stats and GET /metrics serve.
func (f *front) statsView() serve.Stats {
	st := f.sv.Stats()
	if f.limits != nil {
		// Rate limiting is enforced at this front, so its counters live
		// here; fold them into the server-wide view operators poll.
		st.Overload.RateLimited = f.limits.rejected.Load()
		st.Overload.RateShedHeartbeats = f.limits.shedHB.Load()
	}
	return st
}

// probeOK is the body of a passing /healthz or /readyz probe.
var probeOK = []byte("{\"status\":\"ok\"}\n")

func healthz(w http.ResponseWriter, _ *http.Request) {
	writeBody(w, http.StatusOK, probeOK)
}

func (f *front) readyz(w http.ResponseWriter, _ *http.Request) {
	if st := f.sv.Stats(); st.WAL != nil && st.WAL.Wedged {
		code := http.StatusServiceUnavailable
		writeErrJSON(w, code, serve.RetryAfterOutageSeconds, IngestResult{Error: errBody(code, wal.ErrFailed)})
		return
	}
	writeBody(w, http.StatusOK, probeOK)
}

// snapshotWriter tracks whether any response byte was attempted: once a
// Write reaches the ResponseWriter the 200 status is committed (net/http
// writes it implicitly), so a later error can neither change the status
// nor append text without corrupting the wire stream.
type snapshotWriter struct {
	w     http.ResponseWriter
	wrote bool
}

func (sw *snapshotWriter) Write(p []byte) (int, error) {
	if len(p) > 0 {
		sw.wrote = true
	}
	return sw.w.Write(p)
}

func (f *front) snapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", wireContentType)
	sw := &snapshotWriter{w: w}
	if err := f.sv.Snapshot(sw); err == nil {
		return
	} else if !sw.wrote {
		// Clean failure: nothing reached the wire, so a real status code
		// still can. A server without a WAL has no snapshot to give (409,
		// naming -wal); anything else is the server's fault.
		code := http.StatusInternalServerError
		if errors.Is(err, serve.ErrNoWAL) {
			code = http.StatusConflict
		}
		http.Error(w, errBody(code, err), code)
	} else {
		// Bytes are already on the wire under an implicit 200. http.Error
		// here would both log a superfluous WriteHeader and append error
		// text to a partial wire stream, which a client could mistake for
		// frames; aborting the connection is the one unambiguous signal.
		// (The wire format is self-checking, so even a client that ignores
		// the hard close fails typed in RestoreServer rather than
		// restoring a silent prefix.)
		panic(http.ErrAbortHandler)
	}
}
