package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/servehttp"
	"repro/internal/simulator"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The four workloads. Names are final: later issues cite them.
const (
	scratchIngest = "scratch_ingest"
	warmIngest    = "warm_ingest"
	wireWALIngest = "wire_wal_ingest"
	crashRecover  = "crash_recover"
)

var workloadNames = []string{scratchIngest, warmIngest, wireWALIngest, crashRecover}

// Per-workload constants. wireReplicas multiplies the stream on the wire
// workload so a pass is long enough to time. A query chunk is queryChunk
// whole-job queries, timed together (one call is tens of microseconds, too
// short to time on its own): whole sweeps over the units on every workload.
// queryChunks is how many of them a pass issues, so that the sweep is about a
// tenth of a pass. crashStride thins the corpus for crash_recover: serve.Recover
// is one call that cannot be timed in pieces, so its image holds every third
// job and a run recovers it three times as often.
const (
	wireReplicas = 8
	walSyncEvery = 2 * time.Millisecond
	queryChunk   = 240
	crashStride  = 3
)

var queryChunks = map[string]int{scratchIngest: 16, warmIngest: 9, wireWALIngest: 10, crashRecover: 6}

// elapsedRule is the wire workload's predictor: it flags a running task once
// it has already run past the straggler threshold. It costs nothing next to
// transport and durability, which is the point of that workload, and unlike
// a predictor that flags nothing it still yields a macro F1 above zero.
type elapsedRule struct{}

func (elapsedRule) Name() string { return "elapsed" }
func (elapsedRule) Reset()       {}
func (elapsedRule) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	out := make([]bool, len(cp.RunningIDs))
	for i, e := range cp.RunningElapsed {
		out[i] = e >= cp.TauStra
	}
	return out, nil
}

func newElapsedRule(wire.JobSpec) simulator.Predictor { return elapsedRule{} }

// outcome is what a job's final report must repeat, pass after pass.
type outcome struct {
	predictedAt          map[int]int
	terminated, finished int
}

// unit is one job as a pass feeds it. base indexes inputs.jobs; on the wire
// workload several units share a base.
type unit struct {
	base  int
	id    uint64
	query *url.URL
	a, b  []body // wire workload only
}

// runner holds one workload's configuration, inputs and expectations.
type runner struct {
	name  string
	in    *inputs
	cfg   serve.Config
	units []unit
	// perChunk is how many units one timed ingest chunk feeds: one job, or on
	// the wire workload one whole copy of the stream.
	perChunk int

	// walRoot is where every WAL directory of the run is made; fsync says
	// whether the WALs issue their fsyncs (see countFS).
	walRoot string
	fsync   bool
	// image is crash_recover's crash image, a directory; imageRecords the
	// mutations in it.
	image        string
	imageRecords int

	// Reference outcomes, recorded by the single-feeder reference run in
	// set-up and compared against on every later pass. Indexed by base.
	want    []*outcome
	wantQ   [][]byte
	macroF1 float64
}

// backend is one server under test.
type backend struct {
	sv  *serve.Server
	h   http.Handler
	log *wal.WAL
	dir string // the WAL's directory, removed on close
	fs  *countFS
}

func (b *backend) close() error {
	if b.log == nil {
		return nil
	}
	if err := b.log.Close(); err != nil {
		return err
	}
	return os.RemoveAll(b.dir)
}

// chunk is one separately timed piece of a pass: a job's events on one side of
// the cut (on the wire workload one copy of the stream's), one serve.Recover,
// or queryChunk queries. The same pieces come in the same order in every pass
// of a run, so a run can keep each piece's best time.
type chunk struct{ wall, cpu time.Duration }

// passResult is one pass's raw measurements.
type passResult struct {
	ingest  []chunk // phases A and B; on crash_recover, R
	count   int     // events behind ingest; on crash_recover, records
	query   []chunk // phase Q
	queries int
	ops     int
	failed  int
}

func total(cs []chunk) (c chunk) {
	for _, x := range cs {
		c.wall += x.wall
		c.cpu += x.cpu
	}
	return c
}

// keepBest lowers each of best's chunks to cs's where that one was faster.
func keepBest(best, cs []chunk) []chunk {
	if best == nil {
		return append(best, cs...)
	}
	for i, c := range cs {
		best[i].wall = min(best[i].wall, c.wall)
		best[i].cpu = min(best[i].cpu, c.cpu)
	}
	return best
}

func newRunner(name string, in *inputs, walRoot string) (*runner, error) {
	r := &runner{name: name, in: in, cfg: serve.DefaultConfig(), walRoot: walRoot}
	switch name {
	case scratchIngest, crashRecover:
		r.cfg.RefitMode = wire.RefitScratch
	case warmIngest:
		r.cfg.RefitMode = wire.RefitWarm
	case wireWALIngest:
		r.cfg.NewPredictor = newElapsedRule
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	r.perChunk = 1
	if name == wireWALIngest {
		var err error
		if r.units, err = encodeReplicas(in, wireReplicas); err != nil {
			return nil, err
		}
		r.perChunk = len(in.jobs)
	} else {
		for i := range in.jobs {
			r.units = append(r.units, unit{base: i, id: in.jobs[i].spec.JobID, query: in.jobs[i].query})
		}
	}
	if name == crashRecover {
		// Jobs are ordered by size, then arrival: every third spans the sizes.
		var third []unit
		for i := 0; i < len(r.units); i += crashStride {
			third = append(third, r.units[i])
		}
		r.units = third
	}
	r.want = make([]*outcome, len(in.jobs))
	r.wantQ = make([][]byte, len(in.jobs))
	return r, nil
}

// reference runs the pass whose outcomes every later pass must repeat. On crash_recover that run is the never-crashed server, and the
// crash image is cut out of it on the way.
func (r *runner) reference() error {
	res, err := r.run(nil, true)
	if err != nil {
		return err
	}
	if res.failed != 0 {
		return fmt.Errorf("%s: reference run failed %d of %d operations", r.name, res.failed, res.ops)
	}
	sum, n := 0.0, 0
	for i, want := range r.want {
		if want == nil {
			continue // a job this workload does not feed
		}
		rep := serve.JobReport{PredictedAt: want.predictedAt}
		sum += rep.Confusion(r.in.jobs[i].truth).F1()
		n++
	}
	r.macroF1 = sum / float64(n)
	return nil
}

// pass runs one measured pass.
func (r *runner) pass(tr *tracer) (passResult, error) { return r.run(tr, false) }

func (r *runner) run(tr *tracer, record bool) (passResult, error) {
	var res passResult
	p := &phases{r: r, tr: tr, record: record, res: &res}
	root := tr.begin("pass", 0, 0)
	defer tr.end(root)
	p.parent = root

	var b *backend
	var err error
	switch {
	case r.name == crashRecover && record:
		// The never-crashed server: snapshot after half the jobs, log tail
		// for the rest, image taken without Close.
		if b, err = r.openNew(tr); err != nil {
			return res, err
		}
		half := len(r.units) / 2
		p.phase("A", func() { p.ingestA(b, r.units[:half]) })
		if _, _, err := b.sv.CheckpointWAL(); err != nil {
			return res, err
		}
		p.phase("A", func() { p.ingestA(b, r.units[half:]) })
		if err := b.log.Sync(); err != nil {
			return res, err
		}
		if r.image, err = r.cloneDir(b.dir); err != nil {
			return res, err
		}
		r.imageRecords = int(b.log.NextLSN() - 1)
	case r.name == crashRecover:
		var dir string
		if dir, err = r.cloneDir(r.image); err != nil {
			return res, err
		}
		p.phase("R", func() {
			p.timed(&res.ingest, func() {
				if b, err = r.open(dir, tr); err == nil {
					drain(b.sv)
				}
			})
		})
		if err != nil {
			return res, err
		}
		res.count = r.imageRecords
		res.ops += r.imageRecords
		if got := int(b.log.NextLSN() - 1); got != r.imageRecords {
			p.fail("recovered %d records, image holds %d", got, r.imageRecords)
		}
	default:
		if b, err = r.fresh(tr); err != nil {
			return res, err
		}
		p.phase("A", func() { p.ingestA(b, r.units) })
	}

	p.phase("Q", func() { p.sweep(b) })
	if r.name != crashRecover {
		p.phase("B", func() { p.ingestB(b, &res.ingest) })
		res.count = p.eventsSent
	} else {
		// The recovered server must finish every job as the never-crashed one
		// did; that is verified, and only the recovery is reported.
		p.phase("B", func() { p.ingestB(b, new([]chunk)) })
	}
	p.verify(b)
	if err := b.close(); err != nil {
		return res, err
	}
	res.failed = p.failed
	return res, nil
}

// fresh builds an empty server as the workload configures it.
func (r *runner) fresh(tr *tracer) (*backend, error) {
	if r.name == wireWALIngest {
		return r.openNew(tr)
	}
	cfg := r.cfg
	cfg.NewPredictor = tr.wrapPredictors(cfg.NewPredictor)
	sv := serve.NewServer(cfg)
	return &backend{sv: sv, h: servehttp.NewHandler(sv)}, nil
}

// newDir makes an empty WAL directory inside the checkout.
func (r *runner) newDir() (string, error) { return os.MkdirTemp(r.walRoot, "wal-") }

// cloneDir copies a WAL directory's files into a new one: how crash_recover
// takes its crash image (every acknowledged byte, no Close) and how each
// pass re-materialises it.
func (r *runner) cloneDir(src string) (string, error) {
	dst, err := r.newDir()
	if err != nil {
		return "", err
	}
	names, err := wal.OSFS.ReadDir(src)
	if err != nil {
		return "", err
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}

// openNew boots a WAL-backed server on an empty directory.
func (r *runner) openNew(tr *tracer) (*backend, error) {
	dir, err := r.newDir()
	if err != nil {
		return nil, err
	}
	return r.open(dir, tr)
}

// open recovers a WAL-backed server from dir (empty: first boot).
func (r *runner) open(dir string, tr *tracer) (*backend, error) {
	cfg := r.cfg
	cfg.NewPredictor = tr.wrapPredictors(cfg.NewPredictor)
	fs := &countFS{fsync: r.fsync}
	id := tr.begin("serve.Recover", tr.phase(), 0)
	sv, log, _, err := serve.Recover(dir, cfg, wal.Options{FS: fs, SyncEvery: walSyncEvery})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &backend{sv: sv, h: servehttp.NewHandler(sv), log: log, dir: dir, fs: fs}, nil
}

// drain returns once no fit is queued or executing. A timed ingest chunk ends
// here, not at the last acknowledgment, so a fit still running on a refit
// worker is charged to the chunk that caused it and never to the next one or
// to the query sweep. The server offers nothing to block on, and the process
// has one processor, so the feeder yields it: the worker runs until it has
// nothing left, and the feeder is next. No sleep, no timer.
func drain(sv *serve.Server) {
	for st := sv.Stats(); st.RefitQueue+st.RefitInflight > 0; st = sv.Stats() {
		runtime.Gosched()
	}
}

// phases carries one pass's bookkeeping through its phases.
type phases struct {
	r      *runner
	tr     *tracer
	parent int
	record bool
	res    *passResult

	eventsSent int // events acknowledged by this backend's lifetime
	failed     int
}

func (p *phases) fail(format string, args ...any) {
	if p.failed++; p.failed == 1 {
		fmt.Printf("FAIL %s: %s\n", p.r.name, fmt.Sprintf(format, args...))
	}
}

// phase runs one phase of a pass under its span.
func (p *phases) phase(name string, fn func()) {
	id := p.tr.begin(name, p.parent, 0)
	p.tr.setPhase(id)
	fn()
	p.tr.end(id)
}

// timed runs one chunk and appends its wall and process CPU time to dst.
func (p *phases) timed(dst *[]chunk, fn func()) {
	c0, t0 := cpuTime(), time.Now()
	fn()
	*dst = append(*dst, chunk{time.Since(t0), cpuTime() - c0})
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only fails on a bad pointer or selector
	}
	return ru
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// chunks cuts units into the groups that are timed together.
func (r *runner) chunks(units []unit) [][]unit {
	var out [][]unit
	for len(units) > 0 {
		n := min(r.perChunk, len(units))
		out, units = append(out, units[:n]), units[n:]
	}
	return out
}

// ingestA registers every unit's job and sends its events before the cut,
// one feeder calling back-to-back: no sleeps, no sockets. A chunk ends when
// no fit is queued or running, so it holds all the work it caused.
func (p *phases) ingestA(b *backend, units []unit) {
	c := &client{p: p}
	for _, group := range p.r.chunks(units) {
		p.timed(&p.res.ingest, func() {
			for i := range group {
				u := &group[i]
				j := &p.r.in.jobs[u.base]
				if u.a != nil {
					c.post(b, u, u.a)
					continue
				}
				id := p.tr.begin("serve.StartJob", p.tr.phase(), u.id)
				err := b.sv.StartJob(j.spec, nil)
				p.tr.end(id)
				if err != nil {
					p.fail("start job %d: %v", u.id, err)
				}
				c.ingest(b, u, j.events[:j.cut])
			}
			drain(b.sv)
		})
		for i := range group {
			p.res.ops++
			p.account(p.r.in.jobs[group[i].base].cut)
		}
	}
}

// ingestB sends the rest of every stream; each ends with the job's finish,
// which waits for the job's last fit, so a chunk needs no drain.
func (p *phases) ingestB(b *backend, dst *[]chunk) {
	c := &client{p: p}
	for _, group := range p.r.chunks(p.r.units) {
		p.timed(dst, func() {
			for i := range group {
				u := &group[i]
				j := &p.r.in.jobs[u.base]
				if u.b != nil {
					c.post(b, u, u.b)
					continue
				}
				c.ingest(b, u, j.events[j.cut:])
			}
		})
		for i := range group {
			j := &p.r.in.jobs[group[i].base]
			p.account(len(j.events) - j.cut)
		}
	}
}

func (p *phases) account(events int) {
	p.eventsSent += events
	p.res.ops += events
}

// sweep issues whole-job queries through the HTTP handler, sweep after sweep
// over the units, in chunks of queryChunk calls.
func (p *phases) sweep(b *backend) {
	c := &client{p: p}
	units := p.r.units
	if p.record {
		for i := range units {
			c.query(b, &units[i]) // keeps every unit's verdicts
		}
		p.res.ops += len(units)
		return
	}
	for k, n := 0, queryChunks[p.r.name]; k < n; k++ {
		p.timed(&p.res.query, func() {
			for i := 0; i < queryChunk; i++ {
				c.query(b, &units[(k*queryChunk+i)%len(units)])
			}
		})
	}
	p.res.queries = queryChunks[p.r.name] * queryChunk
	p.res.ops += p.res.queries
}

// verify checks, untimed, that the pass left the server where the reference
// run left it.
func (p *phases) verify(b *backend) {
	r := p.r
	for i := range r.units {
		u := &r.units[i]
		rep, err := b.sv.Report(u.id)
		if err != nil {
			p.fail("report %d: %v", u.id, err)
			continue
		}
		if !rep.Done || rep.Failed {
			p.fail("job %d: done=%v failed=%v", u.id, rep.Done, rep.Failed)
		}
		got := &outcome{predictedAt: rep.PredictedAt, terminated: rep.Terminated, finished: rep.Finished}
		if want := r.want[u.base]; want == nil && p.record {
			r.want[u.base] = got
		} else if !reflect.DeepEqual(got, want) {
			p.fail("job %d: outcome differs from the reference run", u.id)
		}
	}
	total := p.eventsSent
	if r.name == crashRecover && !p.record {
		for i := range r.units {
			total += r.in.jobs[r.units[i].base].cut // applied before the crash
		}
	}
	if got := b.sv.Stats().Events; got != uint64(total) {
		p.fail("server counted %d events, %d were sent", got, total)
	}
	if r.name == wireWALIngest {
		if got, want := int(b.log.NextLSN()-1), len(r.units)+p.eventsSent; got != want {
			p.fail("WAL holds %d records, want %d", got, want)
		}
	}
}

// client is the feeder's reusable request state.
type client struct {
	p    *phases
	rd   bytes.Reader
	resp memResponse
}

var ingestURL = &url.URL{Path: "/ingest"}

// ingest applies events in process.
func (c *client) ingest(b *backend, u *unit, events []wire.Event) {
	tr := c.p.tr
	for i := range events {
		id := tr.begin("serve.Ingest", tr.phase(), u.id)
		err := b.sv.Ingest(events[i])
		tr.end(id)
		if err != nil {
			c.p.fail("ingest job %d event %d: %v", u.id, i, err)
		}
	}
}

// post sends pre-encoded bodies through the handler.
func (c *client) post(b *backend, u *unit, bodies []body) {
	tr := c.p.tr
	for i := range bodies {
		bd := &bodies[i]
		c.rd.Reset(bd.data)
		req := &http.Request{Method: http.MethodPost, URL: ingestURL, Body: io.NopCloser(&c.rd), ContentLength: int64(len(bd.data))}
		c.resp.reset()
		id := tr.begin("servehttp.ingest", tr.phase(), u.id)
		b.h.ServeHTTP(&c.resp, req)
		tr.end(id)
		if c.resp.code != http.StatusOK || string(c.resp.buf.Bytes()) != bd.want {
			c.p.fail("POST /ingest job %d: %d %s", u.id, c.resp.code, c.resp.buf.Bytes())
		}
	}
}

// query issues the unit's whole-job GET /query and checks the verdicts
// against the reference run's.
func (c *client) query(b *backend, u *unit) {
	tr := c.p.tr
	req := &http.Request{Method: http.MethodGet, URL: u.query}
	c.resp.reset()
	id := tr.begin("servehttp.query", tr.phase(), u.id)
	b.h.ServeHTTP(&c.resp, req)
	tr.end(id)
	tr.addBytes(id, c.resp.buf.Len())
	if c.resp.code != http.StatusOK {
		c.p.fail("GET /query job %d: %d %s", u.id, c.resp.code, c.resp.buf.Bytes())
		return
	}
	r := c.p.r
	if c.p.record && r.wantQ[u.base] == nil {
		r.wantQ[u.base] = append([]byte(nil), c.resp.buf.Bytes()...)
	} else if !bytes.Equal(c.resp.buf.Bytes(), r.wantQ[u.base]) {
		c.p.fail("GET /query job %d: verdicts differ from the reference run", u.id)
	}
}

// memResponse is the in-memory http.ResponseWriter the feeder hands the
// handler: no sockets anywhere in the loop.
type memResponse struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (m *memResponse) Header() http.Header         { return m.hdr }
func (m *memResponse) WriteHeader(code int)        { m.code = code }
func (m *memResponse) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memResponse) reset() {
	if m.hdr == nil {
		m.hdr = http.Header{}
	}
	clear(m.hdr)
	m.code = http.StatusOK
	m.buf.Reset()
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
