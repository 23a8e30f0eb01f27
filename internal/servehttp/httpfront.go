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
//	POST /ingest    body: wire stream (header + spec/event frames).
//	                Specs register jobs through the server's predictor
//	                factory; events stream in body order. Responds with
//	                JSON counts; on error, the counts applied before it.
//	                Either reply is written only after everything the body
//	                applied is in the write-ahead log: frames are staged as
//	                they decode and committed once, one log write per
//	                stream the body touched. An event's log record is the
//	                frame as it arrived, CRC included, checked once.
//	GET  /query     ?job=ID&tasks=0,1,2 — batched verdicts as JSON, the
//	                hot read: pooled scratch and a hand-written encoder
//	                (verdictjson.go) in place of encoding/json.
//	GET  /report    ?job=ID — the job's JobReport as JSON.
//	GET  /stats     server-wide Stats as JSON. Servers running with a WAL
//	                include a "WAL" object (segments, next_lsn, appends,
//	                pending_bytes, fsync_lag_ns, retired_segments) so
//	                operators can watch durability lag alongside traffic.
//	GET  /snapshot  a checkpoint's base as a binary wire stream: a dump of
//	                every live job's spec and event frames, loadable by
//	                RestoreServer, nurdserve -replay or POST /ingest.
//	                Needs a write-ahead log: a server without one (no
//	                -wal) answers 409.
//
// Error mapping: malformed wire bodies and unparseable parameters are 400;
// events or queries for unregistered jobs are 404 (serve.ErrUnknownJob);
// registrations beyond the server's job/task budget, and requests refused
// by per-client rate limiting (Config.ClientRate), are 429; a wedged or
// closed write-ahead log is 503 (wal.ErrFailed/wal.ErrClosed — retry after
// the operator intervenes). 429 and 503 responses carry a Retry-After
// header (seconds) — 429 hints are load-aware (serve.Server.RetryHint tracks
// queue occupancy; rate-limit refusals hint the client's own bucket
// deficit), while 503 carries the fixed, longer serve.RetryAfterOutageSeconds
// because an outage clears on operator timescales. Heartbeat frames shed
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
	"repro/internal/simulator"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Backend is the serving surface the HTTP front (and Replay) consume. *serve.Server implements it; tests substitute fakes through it,
// so the front stays transport-only.
type Backend interface {
	StartJob(spec wire.JobSpec, pred simulator.Predictor) error
	// StageJob and StageEvent are StartJob and serve.Server.Ingest minus
	// the wait for the write-ahead log; nothing they applied may be
	// acknowledged until Commit returns. POST /ingest stages a whole body
	// and commits once, Replay commits each event; both stage every event
	// of a stream through the stream's serve.Body.
	StageJob(spec wire.JobSpec, pred simulator.Predictor) error
	StageEvent(e wire.Event, b *serve.Body) error
	Commit() error
	// QueryAppend appends one verdict per task ID to dst and returns the
	// extended slice. GET /query hands it a pooled slab, so the verdicts
	// must be copies the backend never touches again.
	QueryAppend(dst []serve.TaskVerdict, jobID uint64, taskIDs []int) ([]serve.TaskVerdict, error)
	Report(jobID uint64) (*serve.JobReport, error)
	Stats() serve.Stats
	RetryHint() int
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
	// Specs and Events count the frames applied (on error: before it).
	Specs  int `json:"specs"`
	Events int `json:"events"`
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
	mux.HandleFunc("/snapshot", f.snapshot)
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
// no header); callers derive it per class with front.retryHint.
func writeErrJSON(w http.ResponseWriter, code, retryAfter int, v any) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, code, v)
}

// retryHint picks the Retry-After value for an error class: transient
// throttling (429) tracks live queue occupancy, so a client that obeys the
// hint naturally backs off harder as the server fills; an outage (503) gets
// the fixed, longer operator-timescale hint. Everything else carries none.
func (f *front) retryHint(code int) int {
	switch code {
	case http.StatusTooManyRequests:
		return f.sv.RetryHint()
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

// errCode classifies a serving error for transport. decodeErr marks errors
// raised while reading the request body, where anything unrecognized is the
// transport's fault (400), not a server-side protocol violation (422).
func errCode(err error, decodeErr bool) int {
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
		errors.Is(err, wire.ErrTruncated), errors.Is(err, wire.ErrCorrupt):
		return http.StatusBadRequest
	case decodeErr:
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
	var client string
	if f.limits != nil {
		client = clientID(r)
		if wait, ok := f.limits.admit(client); !ok {
			writeErrJSON(w, http.StatusTooManyRequests, wait,
				IngestResult{Error: fmt.Sprintf("rate limit: client %q exceeds %g frames/s; retry after %ds", client, f.limits.rate, wait)})
			return
		}
	}
	wr := wire.NewReader(http.MaxBytesReader(w, r.Body, maxIngestBody))
	body := serve.NewBody(wr)
	var res IngestResult
	// One wire.Event reused across the batch; NextInto draws its feature slices
	// from the ingest observation pool and serve.RecycleAfterIngest returns each
	// one the server did not retain, so a steady heartbeat stream ingests
	// without per-event heap allocation.
	var ev wire.Event
	var err error
	var decodeErr bool
	for {
		var sp *wire.JobSpec
		if sp, err = wr.NextInto(&ev); err != nil {
			decodeErr = err != io.EOF
			break
		}
		if sp != nil {
			f.charge(client, false)
			if err = f.sv.StageJob(*sp, nil); err != nil {
				break
			}
			res.Specs++
			continue
		}
		if ev.Kind == wire.EventHeartbeat {
			if !f.charge(client, true) {
				res.Shed++
				serve.RecycleAfterIngest(&ev, serve.ErrShed) // never ingested
				continue
			}
		} else {
			f.charge(client, false)
		}
		err = f.sv.StageEvent(ev, body)
		serve.RecycleAfterIngest(&ev, err)
		if errors.Is(err, serve.ErrShed) {
			// Shed by the shard's ingest queue: counted, batch continues.
			// Shedding is the overload policy working, not a failure.
			res.Shed++
			continue
		}
		if err != nil {
			break
		}
		res.Events++
	}
	// One acknowledgment per body, so one log write per stream it touched:
	// whatever the frames above applied is committed before any reply, the
	// 200 and the mid-body error (which reports the counts applied before
	// it) alike. A log that cannot take the write outranks either; a body
	// that applied nothing has nothing to acknowledge and keeps its own
	// answer.
	if res.Specs+res.Events > 0 {
		if cerr := f.sv.Commit(); cerr != nil {
			err, decodeErr = cerr, false
		}
	}
	if err == io.EOF {
		writeJSON(w, http.StatusOK, res)
		return
	}
	code := errCode(err, decodeErr)
	res.Error = errBody(code, err)
	writeErrJSON(w, code, f.retryHint(code), res)
}

// charge pays one rate-limit token for a frame (no-op without a limiter).
// False means the frame must be shed — only possible for sheddable frames.
func (f *front) charge(client string, sheddable bool) bool {
	if f.limits == nil {
		return true
	}
	return f.limits.charge(client, sheddable)
}

// jobParam parses the mandatory ?job= query parameter.
func jobParam(q url.Values) (uint64, error) {
	raw := q.Get("job")
	if raw == "" {
		return 0, fmt.Errorf("missing job parameter")
	}
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad job parameter %q", raw)
	}
	return id, nil
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
	q := r.URL.Query()
	id, err := jobParam(q)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, IngestResult{Error: err.Error()})
		return
	}
	rawTasks := q.Get("tasks")
	if rawTasks == "" {
		writeJSON(w, http.StatusBadRequest, IngestResult{Error: "missing tasks parameter"})
		return
	}
	sc := queryScratchPool.Get().(*queryScratch)
	defer sc.release()
	sc.ids = sc.ids[:0]
	for rest, more := rawTasks, true; more; {
		var s string
		s, rest, more = strings.Cut(rest, ",")
		tid, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, IngestResult{Error: fmt.Sprintf("bad task id %q", s)})
			return
		}
		sc.ids = append(sc.ids, tid)
	}
	if sc.vs, err = f.sv.QueryAppend(sc.vs[:0], id, sc.ids); err != nil {
		code := errCode(err, false)
		writeErrJSON(w, code, f.retryHint(code), IngestResult{Error: errBody(code, err)})
		return
	}
	if sc.out, err = appendVerdicts(sc.out[:0], sc.vs); err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, sc.out)
}

func (f *front) report(w http.ResponseWriter, r *http.Request) {
	id, err := jobParam(r.URL.Query())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, IngestResult{Error: err.Error()})
		return
	}
	rep, err := f.sv.Report(id)
	if err != nil {
		code := errCode(err, false)
		writeErrJSON(w, code, f.retryHint(code), IngestResult{Error: errBody(code, err)})
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (f *front) stats(w http.ResponseWriter, r *http.Request) {
	st := f.sv.Stats()
	if f.limits != nil {
		// Rate limiting is enforced at this front, so its counters live
		// here; fold them into the server-wide view operators poll.
		st.Overload.RateLimited = f.limits.rejected.Load()
		st.Overload.RateShedHeartbeats = f.limits.shedHB.Load()
	}
	writeJSON(w, http.StatusOK, st)
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
