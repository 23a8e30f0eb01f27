package wal_test

// body_test.go covers the staged write path from the outside: request
// bodies through the HTTP handler stage every frame and commit once, and
// that must be invisible everywhere except in the number of writes. The
// differential test holds a body-fed directory byte-equal to an event-fed
// one; the torture sweep kills the log at every write boundary and inside
// the multi-record writes; the two-client tests pin what one client's
// acknowledgment may and may not depend on of another's half-sent body.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/servehttp"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

// feedBodies cuts the feed into consecutive request bodies of at most n
// frames each. The feed is every spec, then every event, so each body is
// its specs followed by its events — the order WriteDump emits.
func feedBodies(t testing.TB, feed []tortureMutation, n int) (bodies [][]byte, sizes []int) {
	t.Helper()
	for len(feed) > 0 {
		k := min(n, len(feed))
		var specs []wire.JobSpec
		var events []wire.Event
		for _, mu := range feed[:k] {
			if mu.spec != nil {
				specs = append(specs, *mu.spec)
			} else {
				events = append(events, *mu.ev)
			}
		}
		var buf bytes.Buffer
		if err := wire.WriteDump(&buf, specs, events); err != nil {
			t.Fatal(err)
		}
		bodies, sizes = append(bodies, buf.Bytes()), append(sizes, k)
		feed = feed[k:]
	}
	return bodies, sizes
}

// postBody sends one body through the handler, no sockets, and returns the
// status and decoded reply.
func postBody(t testing.TB, h http.Handler, body io.Reader) (int, servehttp.IngestResult) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", body))
	var res servehttp.IngestResult
	if err := json.NewDecoder(rec.Body).Decode(&res); err != nil {
		t.Fatalf("ingest reply is not JSON: %v", err)
	}
	return rec.Code, res
}

// mustPost requires the body to be acknowledged whole.
func mustPost(t testing.TB, h http.Handler, body []byte, frames int) {
	t.Helper()
	if code, res := postBody(t, h, bytes.NewReader(body)); code != http.StatusOK || res.Specs+res.Events != frames {
		t.Fatalf("POST /ingest: %d, %d specs + %d events of %d frames (%s)", code, res.Specs, res.Events, frames, res.Error)
	}
}

// segOps counts the journal's operations of one kind on segment files,
// from journal position from on.
func segOps(fs *waltest.MemFS, from, kind int) int {
	n := 0
	for _, op := range fs.Journal[from:] {
		if op.Kind == kind && strings.Contains(op.Name, "/"+wal.SegPrefix) {
			n++
		}
	}
	return n
}

// TestBodyFedDirectoryMatchesEventFed is the staged path's differential
// oracle: one single-feeder feed through per-event Ingest and through
// request bodies must leave the same files with the same bytes — segment
// cuts, stamps and chain links included — while the body-fed log pays at
// most one write per body, plus what rotation and the early-write cap
// force.
func TestBodyFedDirectoryMatchesEventFed(t *testing.T) {
	feed, _ := tortureFeed(t, 20, 137)
	for _, tc := range []struct {
		name   string
		opts   wal.Options
		frames int
	}{
		// Rotation inside bodies: a 256-frame body spans several segments.
		{"rotating", wal.Options{SegmentBytes: 16 << 10, SyncEvery: time.Hour}, 256},
		// No rotation: a body outgrows the stage cap instead.
		{"capped", wal.Options{SegmentBytes: 8 << 20, SyncEvery: time.Hour}, 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			byEvent := waltest.NewMemFS()
			opts := tc.opts
			opts.FS = byEvent
			sv, log, _, err := serve.Recover("wal", tortureCfg(4), opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range feed {
				if err := feed[i].apply(sv); err != nil {
					t.Fatalf("mutation %d: %v", i, err)
				}
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}

			byBody := waltest.NewMemFS()
			opts.FS = byBody
			sv, log, _, err = serve.Recover("wal", tortureCfg(4), opts)
			if err != nil {
				t.Fatal(err)
			}
			h := servehttp.NewHandler(sv)
			bodies, sizes := feedBodies(t, feed, tc.frames)
			for i := range bodies {
				mustPost(t, h, bodies[i], sizes[i])
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}

			if len(byBody.Files) != len(byEvent.Files) {
				t.Fatalf("body-fed directory holds %d files, event-fed %d", len(byBody.Files), len(byEvent.Files))
			}
			var total int
			for name, want := range byEvent.Files {
				got, ok := byBody.Files[name]
				if !ok {
					t.Fatalf("body-fed directory lacks %s", name)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s differs: %d bytes body-fed, %d event-fed", name, len(got), len(want))
				}
				total += len(want)
			}

			// Every segment costs its header write and at most one forced
			// write when it fills; every stageLimit bytes at most one early
			// write; the rest is one write per body.
			creates := segOps(byBody, 0, waltest.OpCreate)
			bound := len(bodies) + 2*creates + total/wal.StageLimit
			writes, perEvent := segOps(byBody, 0, waltest.OpWrite), segOps(byEvent, 0, waltest.OpWrite)
			if writes > bound {
				t.Errorf("%d bodies cost %d segment writes, bound %d", len(bodies), writes, bound)
			}
			if perEvent < len(feed) {
				t.Fatalf("event-fed run wrote %d times for %d mutations; the oracle is not per-event", perEvent, len(feed))
			}
			if tc.name == "capped" && writes <= len(bodies)+creates {
				t.Errorf("%d writes for %d bodies: no body was written early, the cap went unexercised", writes, len(bodies))
			}
			t.Logf("%d mutations, %d bytes: %d writes event-fed, %d body-fed (bound %d)", len(feed), total, perEvent, writes, bound)
		})
	}
}

// TestOneBodyOneWritePerStream pins the count the staged path exists for: a
// body (or an IngestBatch) reaches the log's one stream as one write and,
// with SyncEvery 0, one fsync — not one of each per frame, nor per job.
func TestOneBodyOneWritePerStream(t *testing.T) {
	fs := waltest.NewMemFS()
	sv, log, _, err := serve.Recover("wal", servetest.CheapConfig(4), wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	h := servehttp.NewHandler(sv)
	ids := []uint64{1, 2, 3, 4}
	var specs []wire.JobSpec
	for _, id := range ids {
		sp := commitSpec(id)
		sp.NumTasks = 64
		specs = append(specs, sp)
	}
	var reg bytes.Buffer
	if err := wire.WriteDump(&reg, specs, nil); err != nil {
		t.Fatal(err)
	}
	mustPost(t, h, reg.Bytes(), len(specs)) // opens the segment

	starts := func(ids []uint64, from, to int) []wire.Event {
		var evs []wire.Event
		for task := from; task < to; task++ {
			for _, id := range ids {
				evs = append(evs, wire.Event{Kind: wire.EventTaskStart, JobID: id, TaskID: task, Time: float64(task)})
			}
		}
		return evs
	}
	var body bytes.Buffer
	evs := starts(ids[:3], 0, 32)
	if err := wire.WriteDump(&body, nil, evs); err != nil {
		t.Fatal(err)
	}
	mark := len(fs.Journal)
	mustPost(t, h, body.Bytes(), len(evs))
	if w, s := segOps(fs, mark, waltest.OpWrite), segOps(fs, mark, waltest.OpSync); w != 1 || s != 1 {
		t.Errorf("a %d-frame body of 3 jobs cost %d writes and %d fsyncs, want 1 and 1", len(evs), w, s)
	}

	mark = len(fs.Journal)
	if err := servetest.IngestBatch(sv, starts(ids[1:], 32, 64)); err != nil {
		t.Fatal(err)
	}
	if w, s := segOps(fs, mark, waltest.OpWrite), segOps(fs, mark, waltest.OpSync); w != 1 || s != 1 {
		t.Errorf("an IngestBatch of 3 jobs cost %d writes and %d fsyncs, want 1 and 1", w, s)
	}

	// A body that fails half way still commits what it applied before the
	// error reply: the counts it reports are in the log.
	evs = append(starts(ids[:1], 32, 40), wire.Event{Kind: wire.EventTaskStart, JobID: 1 << 40, TaskID: 0, Time: 1})
	body.Reset()
	if err := wire.WriteDump(&body, nil, evs); err != nil {
		t.Fatal(err)
	}
	before := log.NextLSN()
	code, res := postBody(t, h, bytes.NewReader(body.Bytes()))
	if code != http.StatusNotFound || res.Events != 8 {
		t.Fatalf("half-bad body: %d with %d events applied, want 404 with 8", code, res.Events)
	}
	if got := recordsOnFS(t, fs); got != int(before)-1+8 {
		t.Errorf("after the 404, %d records on the filesystem, want %d", got, int(before)-1+8)
	}
}

// recordsOnFS counts the records a recovery of fs's "wal" directory would
// replay from LSN 1, reading through a copy so nothing is repaired in place.
func recordsOnFS(t testing.TB, fs *waltest.MemFS) int {
	t.Helper()
	n := 0
	var rst wal.RecoveryStats
	image := waltest.FSAt(fs.Journal, fs.TotalWritten(), false)
	if _, err := wal.ScanDir(image, "wal", 0, false, &rst, func(uint64, wire.FrameKind, []byte) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// --- crash torture, body-fed ---

// bodyAck is one acknowledgment of the body-fed reference run: the journal
// offset at which it was given and how many mutations it covers in all.
type bodyAck struct {
	offset    int64
	mutations int
}

// bodyRun is tortureRun with request bodies in place of single mutations:
// the whole feed through the handler, frames per body, with a checkpoint
// every ckptEvery bodies and an explicit Sync every syncEvery (0: never).
// It returns the journaling filesystem, the reference state, every body's
// acknowledgment and every completed Sync as (offset, mutations covered).
func bodyRun(t testing.TB, feed []tortureMutation, specs []wire.JobSpec, opts wal.Options, frames, ckptEvery, syncEvery int) (*waltest.MemFS, tortureState, []bodyAck, []bodyAck) {
	t.Helper()
	fs := waltest.NewMemFS()
	opts.FS = fs
	sv, log, _, err := serve.Recover("wal", tortureCfg(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	h := servehttp.NewHandler(sv)
	bodies, sizes := feedBodies(t, feed, frames)
	var acks, syncs []bodyAck
	done := 0
	for i := range bodies {
		mustPost(t, h, bodies[i], sizes[i])
		done += sizes[i]
		acks = append(acks, bodyAck{fs.TotalWritten(), done})
		if (i+1)%ckptEvery == 0 {
			if _, _, err := sv.CheckpointWAL(); err != nil {
				t.Fatalf("checkpoint after body %d: %v", i, err)
			}
		}
		if syncEvery > 0 && (i+1)%syncEvery == 0 {
			if err := log.Sync(); err != nil {
				t.Fatal(err)
			}
			syncs = append(syncs, bodyAck{fs.TotalWritten(), done})
		}
	}
	ref := captureState(t, sv, specs)
	log.Close()
	return fs, ref, acks, syncs
}

// covered returns how many mutations the acknowledgments given at or before
// journal offset x cover, and the size of the body in flight at x.
func covered(acks []bodyAck, x int64) (mutations, inFlight int) {
	n := sort.Search(len(acks), func(i int) bool { return acks[i].offset > x })
	if n > 0 {
		mutations = acks[n-1].mutations
	}
	if n < len(acks) {
		inFlight = acks[n].mutations - mutations
	}
	return mutations, inFlight
}

// bodyCrashPoints lists the sweep's kill offsets: the end of every
// journaled write, plus perWrite sampled offsets strictly inside each write
// long enough to hold more than one record.
func bodyCrashPoints(fs *waltest.MemFS, rng *rand.Rand, perWrite int) []int64 {
	var points []int64
	var off int64
	for _, op := range fs.Journal {
		if op.Kind != waltest.OpWrite {
			continue
		}
		if n := int64(len(op.Data)); n > 512 && strings.Contains(op.Name, "/"+wal.SegPrefix) {
			for k := 0; k < perWrite; k++ {
				points = append(points, off+1+rng.Int63n(n-1))
			}
		}
		off += int64(len(op.Data))
		points = append(points, off)
	}
	return points
}

// TestWALTortureBodies is the crash-inside-a-body ≡ never-crashed bar, both
// storage models. Process crash: every acknowledged body is recovered
// whole, at most the one body in flight contributes a prefix on top (no
// phantom records, no hole below an acknowledged LSN), and the resumed run
// is bit-identical. Power loss, SyncEvery 0: the same, because a commit
// fsyncs what it wrote before the reply. Power loss, group commit: what a
// completed Sync covered survives, nothing beyond the written prefix
// appears.
func TestWALTortureBodies(t *testing.T) {
	const frames = 48
	stride := 1
	if testing.Short() || raceEnabled {
		stride = 11
	}
	for _, tc := range []struct {
		name      string
		opts      wal.Options
		syncEvery int
		powerLoss bool
	}{
		{"crash", wal.Options{SegmentBytes: 16 << 10, SyncEvery: time.Hour}, 0, false},
		{"powerloss-sync0", wal.Options{SegmentBytes: 16 << 10}, 0, true},
		{"powerloss-group", wal.Options{SegmentBytes: 16 << 10, SyncEvery: time.Hour}, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			feed, specs := tortureFeed(t, 20, 139)
			fs, ref, acks, syncs := bodyRun(t, feed, specs, tc.opts, frames, 9, tc.syncEvery)
			points := bodyCrashPoints(fs, rand.New(rand.NewSource(139)), 2)
			inside := len(points) - segOps(fs, 0, waltest.OpWrite)
			if inside < 20 {
				t.Fatalf("only %d kill points fall inside multi-record writes", inside)
			}
			for i := 0; i < len(points); i += stride {
				x := points[i]
				got, rst := recoverAndResume(t, waltest.FSAt(fs.Journal, x, tc.powerLoss), feed, specs, tc.opts)
				recovered := int(rst.NextLSN) - 1
				acked, inFlight := covered(acks, x)
				floor := acked
				if tc.syncEvery > 0 {
					floor, _ = covered(syncs, x)
				}
				if recovered < floor {
					t.Fatalf("kill at byte %d: recovered %d mutations, %d were acknowledged and durable (%v)", x, recovered, floor, rst)
				}
				if recovered > acked+inFlight {
					t.Fatalf("kill at byte %d: recovered %d mutations, only %d acknowledged + %d in flight existed (%v)",
						x, recovered, acked, inFlight, rst)
				}
				if d := ref.diff(got); d != "" {
					t.Fatalf("kill at byte %d (recovery %v): %s", x, rst, d)
				}
			}
		})
	}
}

// --- two clients ---

// TestCommitWritesSiblingsLowerStage: client A has staged a record and not
// committed (it is still uploading); client B then stages a higher LSN and
// commits. When B is acknowledged A's record must already be on the
// filesystem — B wrote it — or a crash now would leave a hole below B's
// acknowledged LSN.
func TestCommitWritesSiblingsLowerStage(t *testing.T) {
	fs := waltest.NewMemFS()
	sv, log, _, err := serve.Recover("wal", servetest.CheapConfig(2), wal.Options{SyncEvery: time.Hour, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	ids := []uint64{1, 2}
	var first bytes.Buffer
	if err := wire.WriteDump(&first, []wire.JobSpec{commitSpec(ids[0])}, nil); err != nil {
		t.Fatal(err)
	}
	pw, aDone := halfSent(t, servehttp.NewHandler(sv), first.Bytes(), func() bool { return len(sv.JobIDs()) == 1 }) // A: LSN 1, staged
	if got := recordsOnFS(t, fs); got != 0 {
		t.Fatalf("a staged, uncommitted record is already on the filesystem (%d records)", got)
	}
	if err := sv.StartJob(commitSpec(ids[1]), nil); err != nil { // B: LSN 2, acknowledged
		t.Fatal(err)
	}
	if got := recordsOnFS(t, fs); got != 2 {
		t.Fatalf("B acknowledged with %d records on the filesystem, want 2: A's lower LSN was left staged", got)
	}
	pw.Close() // A's own commit finds nothing left to write
	if code := <-aDone; code != http.StatusOK {
		t.Fatalf("A answered %d", code)
	}
	if w := segOps(fs, 0, waltest.OpWrite); w != 2 {
		t.Errorf("%d segment writes for the header and one write of both records, want 2", w)
	}
}

// halfSent posts a body to h whose first bytes have arrived and whose end
// has not: it writes first to the request's pipe and returns once applied
// reports them applied. The handler then waits on the pipe with what it
// applied staged and not committed; closing the pipe ends the body, and
// the returned channel delivers the reply's status.
func halfSent(t *testing.T, h http.Handler, first []byte, applied func() bool) (*io.PipeWriter, <-chan int) {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan int, 1)
	go func() {
		code, _ := postBody(t, h, pr)
		done <- code
	}()
	if _, err := pw.Write(first); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !applied(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the body's first frames were never applied")
		}
	}
	return pw, done
}

// TestStalledUploadDoesNotDelaySibling: client A sends half a body and
// stalls. Client B's whole body must be acknowledged while A is still
// stalled — B commits A's staged prefix itself instead of waiting for A.
func TestStalledUploadDoesNotDelaySibling(t *testing.T) {
	fs := waltest.NewMemFS()
	sv, log, _, err := serve.Recover("wal", servetest.CheapConfig(2), wal.Options{SyncEvery: time.Hour, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	h := servehttp.NewHandler(sv)
	ids := []uint64{1, 2}
	half := func(id uint64) (first, rest []byte) {
		sp := commitSpec(id)
		var a, b bytes.Buffer
		if err := wire.WriteDump(&a, []wire.JobSpec{sp}, []wire.Event{{Kind: wire.EventTaskStart, JobID: id, TaskID: 0, Time: 1}}); err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteDump(&b, nil, []wire.Event{{Kind: wire.EventTaskStart, JobID: id, TaskID: 1, Time: 2}}); err != nil {
			t.Fatal(err)
		}
		return a.Bytes(), b.Bytes()[len(wire.AppendHeader(nil)):] // one stream: header once
	}

	aFirst, aRest := half(ids[0])
	pr, pw := io.Pipe()
	aDone := make(chan int, 1)
	go func() {
		code, _ := postBody(t, h, pr)
		aDone <- code
	}()
	if _, err := pw.Write(aFirst); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); sv.Stats().Events < 1; {
		if time.Now().After(deadline) {
			t.Fatal("A's first frames were never applied")
		}
		time.Sleep(time.Millisecond)
	}

	bFirst, bRest := half(ids[1])
	bDone := make(chan int, 1)
	go func() {
		code, _ := postBody(t, h, bytes.NewReader(append(bFirst, bRest...)))
		bDone <- code
	}()
	select {
	case code := <-bDone:
		if code != http.StatusOK {
			t.Fatalf("B answered %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("B's acknowledgment waits for A's stalled upload")
	}
	select {
	case code := <-aDone:
		t.Fatalf("A answered %d before its body ended", code)
	default:
	}
	if got := recordsOnFS(t, fs); got != 5 {
		t.Errorf("B acknowledged with %d records on the filesystem, want A's 2 and B's 3", got)
	}

	if _, err := pw.Write(aRest); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	select {
	case code := <-aDone:
		if code != http.StatusOK {
			t.Fatalf("A answered %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("A never answered after its body ended")
	}
	if got := recordsOnFS(t, fs); got != 6 {
		t.Errorf("%d records on the filesystem after both bodies, want 6", got)
	}
}

// TestCheckpointCommitsStagedFirst: a checkpoint taken while a client is
// mid-body serializes that body's applied prefix into the snapshot. Those
// records must be in the log before the snapshot can be recovered from —
// a snapshot ahead of the log would have recovery hand their LSNs out a
// second time, and replay would skip the new owners as already reflected.
func TestCheckpointCommitsStagedFirst(t *testing.T) {
	fs := waltest.NewMemFS()
	opts := wal.Options{SyncEvery: time.Hour, FS: fs}
	sv, log, _, err := serve.Recover("wal", servetest.CheapConfig(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	var first bytes.Buffer
	ww := wire.NewWriter(&first)
	for _, id := range []uint64{1, 2} { // staged, never committed by their client
		if err := ww.WriteSpec(commitSpec(id)); err != nil {
			t.Fatal(err)
		}
		if err := ww.WriteEvent(wire.Event{Kind: wire.EventTaskStart, JobID: id, TaskID: 0, Time: 1}); err != nil {
			t.Fatal(err)
		}
	}
	pw, done := halfSent(t, servehttp.NewHandler(sv), first.Bytes(), func() bool { return sv.Stats().Events == 2 })
	defer func() { pw.Close(); <-done }()
	if _, _, err := sv.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	if got := recordsOnFS(t, fs); got != 4 {
		t.Fatalf("checkpoint left %d of the 4 records it reflects on the filesystem", got)
	}
	opts.FS = waltest.FSAt(fs.Journal, fs.TotalWritten(), false) // the process dies here
	sv2, log2, rst, err := serve.Recover("wal", servetest.CheapConfig(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if rst.NextLSN != 5 {
		t.Errorf("recovered next LSN %d behind a snapshot reflecting LSNs 1-4 (%v)", rst.NextLSN, rst)
	}
	if got := sv2.Stats().Events; got != 2 {
		t.Errorf("recovered server counts %d events, want 2", got)
	}
}

// TestStageCommitConcurrent drives the staged path from every kind of
// caller at once — request bodies, IngestBatch, single Ingest — over small
// segments, with the group-commit flusher, explicit
// Syncs and checkpoints running beside them, and requires every
// acknowledged mutation back from recovery. Run under -race.
func TestStageCommitConcurrent(t *testing.T) {
	fs := waltest.NewMemFS()
	opts := wal.Options{SegmentBytes: 8 << 10, SyncEvery: time.Millisecond, FS: fs}
	sv, log, _, err := serve.Recover("wal", servetest.CheapConfig(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	specs, streams := walWorkload(t, 6, 149)
	h := servehttp.NewHandler(sv)
	total := 0
	for i := range specs {
		total += 1 + len(streams[i])
	}
	errs := make(chan error, len(specs)+1)
	stop := make(chan struct{})
	go func() { // the operator: syncs and checkpoints throughout
		for {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			if err := log.Sync(); err != nil {
				errs <- err
				return
			}
			if _, _, err := sv.CheckpointWAL(); err != nil {
				errs <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for i := range specs {
		go func(i int) {
			if err := sv.StartJob(specs[i], nil); err != nil {
				errs <- err
				return
			}
			evs := streams[i]
			switch i % 3 {
			case 0: // 64-frame bodies
				for len(evs) > 0 {
					n := min(64, len(evs))
					var body bytes.Buffer
					if err := wire.WriteDump(&body, nil, evs[:n]); err != nil {
						errs <- err
						return
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", &body))
					if rec.Code != http.StatusOK {
						errs <- fmt.Errorf("POST /ingest: %d %s", rec.Code, rec.Body)
						return
					}
					evs = evs[n:]
				}
			case 1:
				for len(evs) > 0 {
					n := min(64, len(evs))
					if err := servetest.IngestBatch(sv, evs[:n]); err != nil {
						errs <- err
						return
					}
					evs = evs[n:]
				}
			default:
				for _, e := range evs {
					if err := sv.Ingest(e); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(i)
	}
	for range specs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got := int(log.NextLSN()) - 1; got != total {
		t.Fatalf("%d LSNs assigned for %d acknowledged mutations", got, total)
	}
	// Close stops the flusher (which journals too) and, with everything
	// acknowledged, has nothing left to write: the image is what a crash
	// after the last acknowledgment would leave.
	written := fs.TotalWritten()
	log.Close()
	if fs.TotalWritten() != written {
		t.Fatalf("Close wrote %d bytes after every mutation was acknowledged", fs.TotalWritten()-written)
	}
	opts.FS = waltest.FSAt(fs.Journal, written, false)
	sv2, log2, rst, err := serve.Recover("wal", servetest.CheapConfig(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if int(rst.NextLSN)-1 != total {
		t.Fatalf("recovered %d of %d acknowledged mutations (%v)", rst.NextLSN-1, total, rst)
	}
	for i := range specs {
		want, _ := sv.Report(specs[i].JobID)
		got, err := sv2.Report(specs[i].JobID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(servetest.CoreOf(got), servetest.CoreOf(want)) {
			t.Errorf("job %d: recovered report differs from the live one", specs[i].JobID)
		}
	}
}

// TestStageEventDoesNotAllocate: in steady state — the segment open, the
// payload scratch and staged buffer grown — staging a record puts
// nothing on the heap: the encoder state stays on stage's stack and the
// event is read through the caller's pointer. (At the parent each record
// cost the escaping encoder the closure-taking stage handed its callback.)
func TestStageEventDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, log, _, err := serve.Recover("wal", servetest.CheapConfig(1), wal.Options{SyncEvery: time.Hour, FS: waltest.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	hb := wire.Event{Kind: wire.EventHeartbeat, JobID: 9, TaskID: 3, Time: 12, Tick: 1, Features: make([]float64, 15)}
	fin := wire.Event{Kind: wire.EventJobFinish, JobID: 9, Time: 99}
	const runs = 300 // 300 heartbeat records stay below the early-write limit
	for i := 0; i < runs+1; i++ {
		if _, err := log.StageEvent(&hb); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range []*wire.Event{&hb, &fin} {
		if err := log.CommitAll(); err != nil { // empties the staged buffer, keeps its capacity
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := log.StageEvent(ev); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("staging a %s record: %.0f allocations, want 0", ev.Kind, allocs)
		}
	}
}
