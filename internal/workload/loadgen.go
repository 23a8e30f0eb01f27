package workload

// loadgen.go is the open-loop load driver: it fires a synthesized
// workload's timeline at a serving front end on the timeline's absolute
// schedule, regardless of how long responses take. That discipline is the
// whole point — a closed-loop driver (send, wait, send) silently stretches
// its schedule whenever the server stalls, so the stall never shows up in
// the recorded latencies (coordinated omission). Here every request has a
// due time fixed before the run starts; if the lane is late (a previous
// response is still in flight), the request fires immediately, the lateness
// is recorded as queue delay, and the request's latency is measured from
// its DUE time, not its actual send — a p99 from this harness includes
// every millisecond a client would actually have waited.
//
// Each scenario client is one delivery lane: elements of a lane are sent in
// timeline order over one sequential request stream (per-job event order is
// a protocol requirement), and lanes run concurrently. Malformed frames are
// always fired as their own single-frame request so the expected 400 cannot
// poison neighboring traffic in a shared batch.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/servehttp"
	"repro/internal/wire"
)

// Options shape one load run.
type Options struct {
	// Speedup compresses virtual time onto the wall clock: 2 runs a
	// scenario in half its virtual duration. 0 or negative defaults to 1.
	Speedup float64
	// Retry429 resends a request refused with a whole-request 429 (nothing
	// applied — rate-limit or budget refusals are atomic), honoring its
	// Retry-After hint up to retryCap per attempt and retryMax attempts.
	// The waits land in the request's open-loop latency, so retried
	// overload shows up as tail latency, exactly as a client would feel
	// it. Partially applied 429s (the budget tripping mid-batch) are never
	// retried: resending would double-apply the prefix.
	Retry429 bool
}

const (
	// maxBatch caps the frames coalesced into one request.
	maxBatch = 256
	// window caps the virtual seconds one request may span: elements
	// further apart are sent in separate requests so batching cannot smear
	// the arrival schedule.
	window = 0.05
	// queryTasks is how many task IDs one probe queries.
	queryTasks = 4
	// retryMax and retryCap bound Retry429's resends: attempts per request,
	// and the longest Retry-After wait honored per attempt.
	retryMax = 3
	retryCap = time.Second
)

// PostResult is one ingest response, as the load driver reads it.
type PostResult struct {
	// Status is the HTTP status code.
	Status int
	// Specs and Events are the element counts the front end reports having
	// applied (present on errors too: the counts before the failure).
	Specs, Events int
	// Shed counts heartbeat frames the server refused by load-shedding
	// policy (IngestResult.Shed) — accounted separately from errors so the
	// offered-vs-achieved gap stays honest under deliberate shedding.
	Shed int
	// RetryAfter is the Retry-After header value, if any.
	RetryAfter string
	// Err carries the front end's error string, if any.
	Err string
}

// HTTPTarget posts to a serving front end over HTTP.
type HTTPTarget struct {
	// Client is the HTTP client (nil uses http.DefaultClient).
	Client *http.Client
	// BaseURL addresses the front end, e.g. "http://127.0.0.1:8080".
	BaseURL string
}

func (t *HTTPTarget) httpClient() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// Post sends one wire-encoded body to /ingest on behalf of the named
// scenario client. A non-2xx status is returned in PostResult, not as an
// error; an error means the request could not be completed at all
// (transport failure), or a 2xx reply's body could not be read or decoded —
// its counts are unknown, so the request is neither acknowledged nor lost.
// The client's name travels as X-Nurd-Client, the front end's rate-limit
// principal, so per-client token buckets see scenario lanes as distinct
// clients even though every lane shares one source address.
func (t *HTTPTarget) Post(client string, body []byte) (PostResult, error) {
	req, err := http.NewRequest(http.MethodPost, t.BaseURL+"/ingest", bytes.NewReader(body))
	if err != nil {
		return PostResult{}, err
	}
	req.Header.Set("Content-Type", "application/x-nurd-wire")
	if client != "" {
		req.Header.Set("X-Nurd-Client", client)
	}
	resp, err := t.httpClient().Do(req)
	if err != nil {
		return PostResult{}, err
	}
	defer resp.Body.Close()
	var res servehttp.IngestResult
	msg, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err == nil {
		err = json.Unmarshal(msg, &res)
	}
	if err != nil && resp.StatusCode < 300 {
		return PostResult{}, fmt.Errorf("ingest reply (status %d): %w", resp.StatusCode, err)
	}
	// A non-2xx body that is not JSON leaves zero counts.
	return PostResult{
		Status:     resp.StatusCode,
		Specs:      res.Specs,
		Events:     res.Events,
		Shed:       res.Shed,
		RetryAfter: resp.Header.Get("Retry-After"),
		Err:        res.Error,
	}, nil
}

// Query asks /query for the verdicts of tasks of job jobID and returns the
// response's status. The body is drained unread; an error means the request
// or that drain failed.
func (t *HTTPTarget) Query(jobID uint64, tasks []int) (int, error) {
	ids := make([]string, len(tasks))
	for i, id := range tasks {
		ids[i] = strconv.Itoa(id)
	}
	resp, err := t.httpClient().Get(fmt.Sprintf("%s/query?job=%d&tasks=%s", t.BaseURL, jobID, strings.Join(ids, ",")))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// Report fetches the job's JobReport from /report: nil, without an error,
// on a non-2xx status.
func (t *HTTPTarget) Report(jobID uint64) (*serve.JobReport, error) {
	resp, err := t.httpClient().Get(fmt.Sprintf("%s/report?job=%d", t.BaseURL, jobID))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if resp.StatusCode >= 300 {
		return nil, nil
	}
	var rep serve.JobReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Report is the JSON result of one open-loop load run.
type Report struct {
	// Scenario and Seed identify the workload; with the checked-in spec
	// files they fully reproduce the run's traffic.
	Scenario string  `json:"scenario"`
	Seed     uint64  `json:"seed"`
	Speedup  float64 `json:"speedup"`

	// Jobs / Events / Malformed are the synthesized element counts;
	// Requests is how many HTTP posts carried them.
	Jobs      int `json:"jobs"`
	Events    int `json:"events"`
	Malformed int `json:"malformed"`
	Requests  int `json:"requests"`

	// OfferedRate is the schedule's demand: well-formed events per wall
	// second had every send fired exactly on time. AchievedRate is what the
	// server acknowledged per wall second of the actual run; RateGap is
	// (offered-achieved)/offered — the honesty metric a closed-loop driver
	// cannot produce.
	OfferedRate  float64 `json:"offered_events_per_s"`
	AchievedRate float64 `json:"achieved_events_per_s"`
	RateGap      float64 `json:"rate_gap"`
	WallSeconds  float64 `json:"wall_s"`

	// AckedEvents / AckedSpecs are the element counts the front end
	// reported applied across all responses.
	AckedEvents int `json:"acked_events"`
	AckedSpecs  int `json:"acked_specs"`

	// Error taxonomy. Rejected429 counts transient overload rejections and
	// Rejected503 durability outages — separate classes because their
	// Retry-After semantics differ (a bucket refill wait or a fixed 1 s
	// vs a fixed operator-timescale hint; hints seen at all are counted in
	// RetryAfterSeen). BadFrameRejects counts 400s earned by injected
	// malformed frames (expected in hostile scenarios); Errors counts
	// everything unexpected, with FirstError carrying the first message
	// for diagnosis.
	Rejected429     int    `json:"rejected_429"`
	Rejected503     int    `json:"rejected_503"`
	RetryAfterSeen  int    `json:"retry_after_seen"`
	Retries         int    `json:"retries_429"`
	BadFrameRejects int    `json:"bad_frame_rejects"`
	Errors          int    `json:"errors"`
	FirstError      string `json:"first_error,omitempty"`

	// Shedding accounting — what keeps the offered-vs-achieved gap honest
	// under deliberate overload. ShedEvents counts heartbeats the server
	// refused by policy (acknowledged as shed, never silently lost).
	// ThrottledEvents counts events carried by whole-request 429/503
	// rejections: refused atomically, retryable, not lost. LostEvents is
	// the residue on 2xx responses — events neither applied nor
	// acknowledged shed — and must be zero: finishes are never shed, so
	// any nonzero value is a served-traffic integrity failure.
	ShedEvents      int `json:"shed_events"`
	ThrottledEvents int `json:"throttled_events"`
	LostEvents      int `json:"lost_events"`

	// Query-prober results (zero unless the scenario sets QueryRate).
	// QueryMisses are 404s — probes that raced their job's (possibly
	// lagging) registration.
	Queries     int `json:"queries"`
	QueryMisses int `json:"query_misses"`
	QueryErrors int `json:"query_errors"`

	// Latency is per-request ingest latency measured from each request's
	// DUE time (open loop: queue delay is inside, coordinated omission is
	// not); QueryLatency is the same discipline for the query prober.
	Latency      Percentiles `json:"latency"`
	QueryLatency Percentiles `json:"query_latency"`
	// QueueDelay isolates the lateness component: actual send minus due.
	QueueDelay Percentiles `json:"queue_delay"`
}

// request is one prepared post: a body of coalesced frames due at a fixed
// offset from run start.
type request struct {
	due       float64 // virtual seconds from scenario start
	body      []byte
	frames    int
	events    int // well-formed events carried
	malformed bool
}

// buildLane slices one client's items into requests: frames coalesce into a
// shared request until the batch cap or the virtual-time window is hit, and
// malformed frames always travel alone.
func buildLane(items []*Item, maxBatch int, window float64) ([]request, error) {
	var reqs []request
	cur := -1 // index into reqs of the open batch, -1 when none
	for _, it := range items {
		if it.Malformed() {
			body, err := AppendItemWire(wire.AppendHeader(nil), it, true)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, request{due: it.At, body: body, frames: 1, malformed: true})
			cur = -1
			continue
		}
		if cur < 0 || reqs[cur].frames >= maxBatch || it.At-reqs[cur].due > window {
			reqs = append(reqs, request{due: it.At, body: wire.AppendHeader(nil)})
			cur = len(reqs) - 1
		}
		var err error
		reqs[cur].body, err = AppendItemWire(reqs[cur].body, it, false)
		if err != nil {
			return nil, err
		}
		reqs[cur].frames++
		if it.Event != nil {
			reqs[cur].events++
		}
	}
	return reqs, nil
}

// laneStats accumulates one lane's measurements; lanes are merged at the
// end so the hot path takes no shared locks.
type laneStats struct {
	latency, queue   Hist
	maxLat, maxQueue float64
	ackedEvents      int
	ackedSpecs       int
	rejected429      int
	rejected503      int
	retries          int
	retryAfterSeen   int
	badFrameRejects  int
	shedEvents       int
	throttledEvents  int
	lostEvents       int
	errors           int
	firstError       string
}

func (ls *laneStats) fail(msg string) {
	ls.errors++
	if ls.firstError == "" {
		ls.firstError = msg
	}
}

// Run drives the workload against the target and reports percentiles and
// rate accounting. The timeline is prepared (batched and wire-encoded)
// before the clock starts, so synthesis and encoding cost never pollute the
// measured schedule.
func Run(wl *Workload, tgt *HTTPTarget, opts Options) (*Report, error) {
	if opts.Speedup <= 0 {
		opts.Speedup = 1
	}

	// Partition items into per-client lanes, preserving timeline order.
	lanes := make([][]*Item, len(wl.Spec.Clients))
	for i := range wl.Items {
		it := &wl.Items[i]
		lanes[it.Client] = append(lanes[it.Client], it)
	}
	laneReqs := make([][]request, 0, len(lanes))
	totalReqs := 0
	for _, items := range lanes {
		if len(items) == 0 {
			continue
		}
		reqs, err := buildLane(items, maxBatch, window)
		if err != nil {
			return nil, err
		}
		laneReqs = append(laneReqs, reqs)
		totalReqs += len(reqs)
	}

	// clientName maps lane index back to its scenario client's name (the
	// rate-limit principal Post conveys).
	clientNames := make([]string, 0, len(laneReqs))
	for ci, items := range lanes {
		if len(items) > 0 {
			clientNames = append(clientNames, wl.Spec.Clients[ci].Name)
		}
	}

	results := make([]laneStats, len(laneReqs))
	var qs queryStats
	start := time.Now()
	var wg sync.WaitGroup
	if wl.Spec.QueryRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runProber(wl, tgt, opts, start, &qs)
		}()
	}
	for li, reqs := range laneReqs {
		wg.Add(1)
		go func(li int, reqs []request) {
			defer wg.Done()
			ls := &results[li]
			client := clientNames[li]
			for i := range reqs {
				req := &reqs[i]
				due := start.Add(time.Duration(req.due / opts.Speedup * float64(time.Second)))
				// Absolute schedule: sleep until due (1ms tolerance: a
				// shorter sleep costs more in timer overhead than it buys);
				// when late, fire immediately — the lateness is queue
				// delay, never a reschedule.
				if ahead := time.Until(due); ahead > time.Millisecond {
					time.Sleep(ahead)
				}
				queued := time.Since(due)
				if queued < 0 {
					queued = 0
				}
				res, err := tgt.Post(client, req.body)
				// A whole-request 429 applied nothing (admission is atomic),
				// so resending the identical body is safe; the Retry-After
				// wait is honored (capped) and lands in the open-loop
				// latency below. A 429 with a nonzero prefix applied is the
				// budget tripping mid-batch — never resent.
				for attempt := 0; opts.Retry429 && err == nil &&
					res.Status == http.StatusTooManyRequests &&
					res.Specs == 0 && res.Events == 0 && res.Shed == 0 &&
					attempt < retryMax; attempt++ {
					wait := retryWait(res.RetryAfter, retryCap)
					time.Sleep(wait)
					ls.retries++
					res, err = tgt.Post(client, req.body)
				}
				lat := time.Since(due)
				if lat < 0 {
					lat = 0
				}
				ls.queue.Record(queued)
				if qsec := queued.Seconds(); qsec > ls.maxQueue {
					ls.maxQueue = qsec
				}
				if err != nil {
					ls.fail(fmt.Sprintf("post: %v", err))
					continue
				}
				ls.latency.Record(lat)
				if s := lat.Seconds(); s > ls.maxLat {
					ls.maxLat = s
				}
				ls.ackedEvents += res.Events
				ls.ackedSpecs += res.Specs
				ls.shedEvents += res.Shed
				if res.RetryAfter != "" {
					ls.retryAfterSeen++
				}
				// remainder is what the request carried but the response
				// accounted for neither as applied nor as shed.
				remainder := req.events - res.Events - res.Shed
				if remainder < 0 {
					remainder = 0
				}
				switch {
				case res.Status < 300:
					// Silent loss on an acknowledged response: must be zero
					// (finishes are never shed, sheds are always counted).
					ls.lostEvents += remainder
				case res.Status == http.StatusTooManyRequests:
					ls.rejected429++
					ls.throttledEvents += remainder
				case res.Status == http.StatusServiceUnavailable:
					ls.rejected503++
					ls.throttledEvents += remainder
				case res.Status == http.StatusBadRequest && req.malformed:
					ls.badFrameRejects++
				default:
					ls.fail(fmt.Sprintf("status %d: %s", res.Status, res.Err))
				}
			}
		}(li, reqs)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := &Report{
		Scenario:  wl.Spec.Name,
		Seed:      wl.Spec.Seed,
		Speedup:   opts.Speedup,
		Jobs:      wl.Jobs,
		Events:    wl.Events,
		Malformed: wl.Malformed,
		Requests:  totalReqs,
	}
	var latency, queue Hist
	var maxLat, maxQueue float64
	for i := range results {
		ls := &results[i]
		latency.Merge(&ls.latency)
		queue.Merge(&ls.queue)
		maxLat = maxf(maxLat, ls.maxLat)
		maxQueue = maxf(maxQueue, ls.maxQueue)
		rep.AckedEvents += ls.ackedEvents
		rep.AckedSpecs += ls.ackedSpecs
		rep.Rejected429 += ls.rejected429
		rep.Rejected503 += ls.rejected503
		rep.Retries += ls.retries
		rep.RetryAfterSeen += ls.retryAfterSeen
		rep.BadFrameRejects += ls.badFrameRejects
		rep.ShedEvents += ls.shedEvents
		rep.ThrottledEvents += ls.throttledEvents
		rep.LostEvents += ls.lostEvents
		rep.Errors += ls.errors
		if rep.FirstError == "" {
			rep.FirstError = ls.firstError
		}
	}
	rep.Queries = qs.queries
	rep.QueryMisses = qs.misses
	rep.QueryErrors = qs.errors
	rep.QueryLatency = qs.latency.report(qs.maxLat)
	rep.WallSeconds = wall.Seconds()
	scheduled := wl.Span / opts.Speedup
	if scheduled > 0 {
		rep.OfferedRate = float64(wl.Events) / scheduled
	}
	if rep.WallSeconds > 0 {
		rep.AchievedRate = float64(rep.AckedEvents) / rep.WallSeconds
	}
	if rep.OfferedRate > 0 {
		rep.RateGap = (rep.OfferedRate - rep.AchievedRate) / rep.OfferedRate
	}
	rep.Latency = latency.report(maxLat)
	rep.QueueDelay = queue.report(maxQueue)
	return rep, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// retryWait parses a Retry-After hint (whole seconds) into a bounded sleep.
// The cap keeps harness runs finite — a real client would honor the full
// hint, but a load run compressing minutes of virtual time cannot sleep 30
// wall seconds per retry and still measure anything.
func retryWait(hint string, cap time.Duration) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(hint))
	if err != nil || secs < 1 {
		return 100 * time.Millisecond
	}
	d := time.Duration(secs) * time.Second
	if d > cap {
		return cap
	}
	return d
}

// queryStats accumulates the query prober's measurements.
type queryStats struct {
	latency Hist
	maxLat  float64
	queries int
	misses  int
	errors  int
}

// runProber is the open-loop query lane: verdict probes on a fixed
// due-time schedule (the scenario's QueryRate per virtual second, so the
// wall rate scales with Speedup), round-robin over the jobs whose
// registration is due by each probe's time, measured from due time exactly
// like ingest requests. Under overload this is the lane that must stay
// fast: queries take no ingest-queue slot, only their job's lock.
func runProber(wl *Workload, tgt *HTTPTarget, opts Options, start time.Time, qs *queryStats) {
	type probeJob struct {
		at     float64
		id     uint64
		ntasks int
	}
	var jobs []probeJob
	for i := range wl.Items {
		if sp := wl.Items[i].Spec; sp != nil {
			jobs = append(jobs, probeJob{at: wl.Items[i].At, id: sp.JobID, ntasks: sp.NumTasks})
		}
	}
	if len(jobs) == 0 {
		return
	}
	period := 1 / wl.Spec.QueryRate
	hi, rr := 0, 0
	for due := jobs[0].at + period; due <= wl.Span; due += period {
		wallDue := start.Add(time.Duration(due / opts.Speedup * float64(time.Second)))
		if ahead := time.Until(wallDue); ahead > time.Millisecond {
			time.Sleep(ahead)
		}
		for hi < len(jobs) && jobs[hi].at <= due {
			hi++
		}
		pj := jobs[rr%hi]
		rr++
		n := queryTasks
		if n > pj.ntasks {
			n = pj.ntasks
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		status, err := tgt.Query(pj.id, ids)
		lat := time.Since(wallDue)
		if lat < 0 {
			lat = 0
		}
		qs.queries++
		qs.latency.Record(lat)
		if s := lat.Seconds(); s > qs.maxLat {
			qs.maxLat = s
		}
		switch {
		case err != nil:
			qs.errors++
		case status == http.StatusNotFound:
			// The job's spec send is behind schedule (or its lane was
			// throttled): a miss, not an error — the prober's schedule is
			// independent of the ingest lanes' fate by design.
			qs.misses++
		case status >= 300:
			qs.errors++
		}
	}
}

// String renders the operator-facing one-glance summary.
func (r *Report) String() string {
	s := fmt.Sprintf(
		"scenario %s (seed %d, speedup %g): %d jobs, %d events in %d requests over %.2fs wall\n"+
			"  offered %.0f ev/s, achieved %.0f ev/s (gap %.1f%%)\n"+
			"  latency p50 %.2fms p95 %.2fms p99 %.2fms p99.9 %.2fms max %.2fms\n"+
			"  queue-delay p99 %.2fms max %.2fms\n"+
			"  acked %d specs / %d events; 429s %d / 503s %d (retry-after on %d, retries %d), expected bad-frame 400s %d/%d, errors %d\n"+
			"  shed %d, throttled %d, lost %d",
		r.Scenario, r.Seed, r.Speedup, r.Jobs, r.Events, r.Requests, r.WallSeconds,
		r.OfferedRate, r.AchievedRate, 100*r.RateGap,
		r.Latency.P50, r.Latency.P95, r.Latency.P99, r.Latency.P999, r.Latency.Max,
		r.QueueDelay.P99, r.QueueDelay.Max,
		r.AckedSpecs, r.AckedEvents, r.Rejected429, r.Rejected503, r.RetryAfterSeen, r.Retries, r.BadFrameRejects, r.Malformed, r.Errors,
		r.ShedEvents, r.ThrottledEvents, r.LostEvents)
	if r.Queries > 0 {
		s += fmt.Sprintf("\n  queries %d (misses %d, errors %d): p50 %.2fms p99 %.2fms max %.2fms",
			r.Queries, r.QueryMisses, r.QueryErrors,
			r.QueryLatency.P50, r.QueryLatency.P99, r.QueryLatency.Max)
	}
	return s
}
