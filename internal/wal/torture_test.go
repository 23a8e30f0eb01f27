package wal_test

// torture_test.go is the crash-injection harness for the WAL. It drives a
// recorded multi-job replay once, uninterrupted, over an in-memory
// filesystem that journals every byte-level operation — then "kills the
// server" at every frame boundary of that journal (and mid-frame, and with
// flipped bits, and with unsynced bytes dropped), rebuilds the filesystem
// as the crash would have left it, runs Recover, resumes the feed at the
// recovered LSN, and asserts the final verdicts, F1, and stats are
// bit-identical to the uninterrupted run. The byte-prefix construction is
// exactly the state a process crash leaves (writes are durable up to the
// kill point, nothing after), so one recorded run covers every possible
// crash instant without re-driving the server thousands of times.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/simulator"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

// --- deterministic torture workload ---

// torturePred is a cheap, stateless, deterministic predictor: whether a
// running task is flagged depends only on (salt, task, checkpoint), so a
// recovered server reaches bit-identical verdicts iff recovery replayed
// exactly the right mutations.
type torturePred struct{ salt uint64 }

func (p *torturePred) Name() string { return "torture" }
func (p *torturePred) Reset()       {}
func (p *torturePred) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	out := make([]bool, len(cp.RunningIDs))
	for i, id := range cp.RunningIDs {
		out[i] = wire.Mix64(p.salt^(uint64(id)*0x9e3779b9+uint64(cp.Index)<<32))%5 == 0
	}
	return out, nil
}

func tortureCfg(shards int) serve.Config {
	return serve.Config{Shards: shards, NewPredictor: func(sp wire.JobSpec) simulator.Predictor {
		return &torturePred{salt: sp.Seed ^ sp.JobID}
	}}
}

// tortureMutation is one element of the recorded feed: exactly one WAL
// record when accepted, so mutation i corresponds to LSN i+1.
type tortureMutation struct {
	spec *wire.JobSpec
	ev   *wire.Event
}

func (mu *tortureMutation) apply(sv *serve.Server) error {
	if mu.spec != nil {
		return sv.StartJob(*mu.spec, nil)
	}
	return sv.Ingest(*mu.ev)
}

// tortureFeed builds a >= numJobs-job feed of small jobs: every spec first,
// then the jobs' merged, time-ordered event streams (heartbeats, finishes,
// per-job closes) — the same shape a recorded replay delivers.
func tortureFeed(t testing.TB, numJobs int, seed uint64) ([]tortureMutation, []wire.JobSpec) {
	t.Helper()
	// Small jobs keep the full every-crash-point sweep tractable: ~20 jobs
	// x ~6 tasks x ~10 heartbeats is a couple thousand mutations, and the
	// sweep is quadratic in feed length.
	cfg := trace.DefaultGoogleConfig(seed)
	cfg.MinTasks, cfg.MaxTasks = 10, 14
	jobs, sims := servetest.Jobs(t, cfg, numJobs)
	specs := make([]wire.JobSpec, numJobs)
	streams := make([][]wire.Event, numJobs)
	for i := range jobs {
		specs[i] = serve.SpecFor(sims[i], seed+uint64(i))
		streams[i] = serve.JobEvents(jobs[i], sims[i])
	}
	merged := serve.MergeStreams(streams...)
	feed := make([]tortureMutation, 0, len(specs)+len(merged))
	for i := range specs {
		feed = append(feed, tortureMutation{spec: &specs[i]})
	}
	for i := range merged {
		feed = append(feed, tortureMutation{ev: &merged[i]})
	}
	return feed, specs
}

// tortureState is the deterministic outcome of a run: everything the
// acceptance bar says must be bit-identical after crash recovery.
type tortureState struct {
	verdicts map[uint64][]serve.TaskVerdict
	reports  map[uint64]servetest.ReportCore
	stats    serve.Stats
}

func captureState(t testing.TB, sv *serve.Server, specs []wire.JobSpec) tortureState {
	t.Helper()
	st := tortureState{
		verdicts: make(map[uint64][]serve.TaskVerdict, len(specs)),
		reports:  make(map[uint64]servetest.ReportCore, len(specs)),
	}
	for i := range specs {
		vs, err := sv.Query(specs[i].JobID, servetest.AllTaskIDs(specs[i].NumTasks))
		if err != nil {
			t.Fatal(err)
		}
		st.verdicts[specs[i].JobID] = vs
		rep, err := sv.Report(specs[i].JobID)
		if err != nil {
			t.Fatal(err)
		}
		st.reports[specs[i].JobID] = servetest.CoreOf(rep)
	}
	st.stats = sv.Stats()
	// Wall-clock refit timings and the WAL's own counters are not part of
	// the equivalence claim.
	st.stats.RefitTotal, st.stats.RefitMax, st.stats.WAL = 0, 0, nil
	return st
}

func (a tortureState) diff(b tortureState) string {
	if !reflect.DeepEqual(a.stats, b.stats) {
		return fmt.Sprintf("stats: %v vs %v", a.stats, b.stats)
	}
	for id, rep := range a.reports {
		if !reflect.DeepEqual(rep, b.reports[id]) {
			return fmt.Sprintf("job %d report: %+v vs %+v", id, rep, b.reports[id])
		}
	}
	for id, vs := range a.verdicts {
		if !reflect.DeepEqual(vs, b.verdicts[id]) {
			return fmt.Sprintf("job %d verdicts diverge", id)
		}
	}
	return ""
}

// tortureRun drives the uninterrupted reference: the whole feed through a
// WAL on the journaling waltest.MemFS, with periodic checkpoints (so crash points
// land before, during, and after snapshot writes and segment retirements).
// Returns the filesystem (with its journal), the reference state, and the
// cumulative write offset after each accepted mutation — the frame
// boundaries of the crash sweep.
func tortureRun(t testing.TB, feed []tortureMutation, specs []wire.JobSpec, opts wal.Options, checkpoints int, syncStride int) (*waltest.MemFS, tortureState, []int64) {
	t.Helper()
	fs := waltest.NewMemFS()
	opts.FS = fs
	sv, wlog, _, err := serve.Recover("wal", tortureCfg(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := make([]int64, 0, len(feed))
	ckptEvery := len(feed)
	if checkpoints > 0 {
		ckptEvery = len(feed)/(checkpoints+1) + 1
	}
	for i := range feed {
		if err := feed[i].apply(sv); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		boundaries = append(boundaries, fs.TotalWritten())
		if (i+1)%ckptEvery == 0 {
			if _, _, err := sv.CheckpointWAL(); err != nil {
				t.Fatalf("checkpoint after mutation %d: %v", i, err)
			}
		}
		if syncStride > 0 && (i+1)%syncStride == 0 {
			if err := wlog.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := captureState(t, sv, specs)
	wlog.Close()
	return fs, ref, boundaries
}

// recoverAndResume rebuilds from fs, resumes the feed at the recovered
// LSN, and returns the final state plus the recovery stats.
func recoverAndResume(t testing.TB, fs *waltest.MemFS, feed []tortureMutation, specs []wire.JobSpec, opts wal.Options) (tortureState, wal.RecoveryStats) {
	t.Helper()
	opts.FS = fs
	sv, wlog, rst, err := serve.Recover("wal", tortureCfg(3), opts)
	if err != nil {
		t.Fatalf("recover: %v (stats %v)", err, rst)
	}
	defer wlog.Close()
	applied := int(rst.NextLSN) - 1
	if applied > len(feed) {
		t.Fatalf("recovered %d mutations, fed only %d", applied, len(feed))
	}
	for i := applied; i < len(feed); i++ {
		if err := feed[i].apply(sv); err != nil {
			t.Fatalf("resume mutation %d: %v", i, err)
		}
	}
	return captureState(t, sv, specs), rst
}

// expectedLSN returns how many mutations are durable at crash offset x:
// mutation i is durable iff its boundary offset fits inside the prefix.
func expectedLSN(boundaries []int64, x int64) uint64 {
	n := sort.Search(len(boundaries), func(i int) bool { return boundaries[i] > x })
	return uint64(n) + 1
}

// TestWALTortureEveryFrameBoundary is the headline acceptance bar: for a
// >= 20-job replay with periodic checkpoints, kill the server at *every*
// frame boundary the log and snapshot writes produce, recover from
// snapshot+WAL, finish the feed, and require bit-identical verdicts, F1,
// reports, and stats versus the uninterrupted run — with zero acknowledged
// mutations lost at any crash point (recovered LSN exactly matches the
// durable prefix).
func TestWALTortureEveryFrameBoundary(t *testing.T) {
	feed, specs := tortureFeed(t, 20, 97)
	opts := wal.Options{SegmentBytes: 16 << 10, Streams: 4}
	fs, ref, boundaries := tortureRun(t, feed, specs, opts, 4, 0)

	// Sanity: the WAL run itself must match a WAL-less run — logging is
	// pure observation.
	plain := serve.NewServer(tortureCfg(2))
	for i := range feed {
		if err := feed[i].apply(plain); err != nil {
			t.Fatal(err)
		}
	}
	if d := ref.diff(captureState(t, plain, specs)); d != "" {
		t.Fatalf("WAL-on run diverges from WAL-less run: %s", d)
	}

	// Crash at every write boundary (every WAL frame, every snapshot
	// frame, every segment header). In -short mode sample the sweep.
	stride := 1
	if testing.Short() || raceEnabled {
		stride = 13 // sampled sweep; the full one needs the plain build
	}
	crashes := make([]int64, 0, len(fs.Journal))
	var off int64
	for _, op := range fs.Journal {
		if op.Kind == waltest.OpWrite {
			off += int64(len(op.Data))
			crashes = append(crashes, off)
		}
	}
	if len(boundaries) != len(feed) {
		t.Fatalf("recorded %d boundaries for %d mutations", len(boundaries), len(feed))
	}
	for i := 0; i < len(crashes); i += stride {
		x := crashes[i]
		got, rst := recoverAndResume(t, waltest.FSAt(fs.Journal, x, false), feed, specs, opts)
		// Every acknowledged mutation must be recovered. One *more* is
		// legal: a crash between a record's frame write and its
		// acknowledgment (e.g. before the rotation header that follows)
		// leaves a durable-but-unacked record, which recovery keeps.
		want := expectedLSN(boundaries, x)
		if rst.NextLSN < want {
			t.Fatalf("crash at byte %d: recovered LSN %d < %d — an acknowledged mutation was lost (%v)",
				x, rst.NextLSN, want, rst)
		}
		if rst.NextLSN > want+1 {
			t.Fatalf("crash at byte %d: recovered LSN %d, acked %d — phantom records invented (%v)",
				x, rst.NextLSN, want, rst)
		}
		if d := ref.diff(got); d != "" {
			t.Fatalf("crash at byte %d (recovery %v): %s", x, rst, d)
		}
	}
}

// TestWALTortureMidFrame kills the server *inside* frames — torn tails at
// sampled byte offsets, including single-byte cuts — and requires the torn
// record to vanish cleanly: recovery lands exactly on the previous durable
// mutation and the resumed run is bit-identical.
func TestWALTortureMidFrame(t *testing.T) {
	feed, specs := tortureFeed(t, 20, 101)
	opts := wal.Options{SegmentBytes: 16 << 10, Streams: 4}
	fs, ref, boundaries := tortureRun(t, feed, specs, opts, 3, 0)
	total := fs.TotalWritten()
	rng := rand.New(rand.NewSource(101))
	points := 120
	if testing.Short() || raceEnabled {
		points = 25
	}
	for i := 0; i < points; i++ {
		x := 1 + rng.Int63n(total-1)
		got, rst := recoverAndResume(t, waltest.FSAt(fs.Journal, x, false), feed, specs, opts)
		if want := expectedLSN(boundaries, x); rst.NextLSN < want || rst.NextLSN > want+1 {
			t.Fatalf("mid-frame crash at byte %d: recovered LSN %d, want %d or %d (%v)",
				x, rst.NextLSN, want, want+1, rst)
		}
		if d := ref.diff(got); d != "" {
			t.Fatalf("mid-frame crash at byte %d (recovery %v): %s", x, rst, d)
		}
	}
}

// TestWALTortureBitFlips corrupts one bit of the surviving log (not just
// its tail) and requires recovery to keep every record before the flip,
// never panic or double-apply, and — because the driver re-feeds from the
// recovered LSN — still converge to the bit-identical final state.
func TestWALTortureBitFlips(t *testing.T) {
	feed, specs := tortureFeed(t, 20, 103)
	// No checkpoints: segments from LSN 1 stay, so a flip anywhere in the
	// log exercises mid-history truncation without losing snapshot cover.
	opts := wal.Options{SegmentBytes: 16 << 10, Streams: 4}
	fs, ref, _ := tortureRun(t, feed, specs, opts, 0, 0)
	rng := rand.New(rand.NewSource(103))
	flips := 120
	if testing.Short() || raceEnabled {
		flips = 25
	}
	var segNames []string
	for name := range fs.Files {
		if strings.Contains(name, wal.SegPrefix) {
			segNames = append(segNames, name)
		}
	}
	sort.Strings(segNames)
	for i := 0; i < flips; i++ {
		crashed := waltest.FSAt(fs.Journal, fs.TotalWritten(), false)
		name := segNames[rng.Intn(len(segNames))]
		b := crashed.Files[name]
		if len(b) == 0 {
			continue
		}
		pos := rng.Intn(len(b))
		b[pos] ^= 1 << uint(rng.Intn(8))
		got, rst := recoverAndResume(t, crashed, feed, specs, opts)
		if rst.NextLSN > uint64(len(feed))+1 {
			t.Fatalf("flip in %s at %d: recovered LSN %d beyond the %d-mutation feed", name, pos, rst.NextLSN, len(feed))
		}
		if d := ref.diff(got); d != "" {
			t.Fatalf("flip in %s at %d (recovery %v): %s", name, pos, rst, d)
		}
	}
}

// TestWALTorturePowerLoss runs the stricter storage model: group commit
// with explicit syncs, and a crash drops every unsynced byte. Acknowledged
// mutations since the last sync may be lost (that is the group-commit
// contract), but never a synced one, and the re-fed run must still be
// bit-identical.
func TestWALTorturePowerLoss(t *testing.T) {
	feed, specs := tortureFeed(t, 20, 107)
	// SyncEvery: 0 would sync every append; use a manual stride instead so
	// there is a real unsynced window. time.Hour keeps the background
	// flusher from ever ticking mid-run, so the journal's sync positions
	// stay deterministic.
	const syncStride = 16
	opts := wal.Options{SegmentBytes: 16 << 10, SyncEvery: time.Hour, Streams: 4}
	fs, ref, boundaries := tortureRun(t, feed, specs, opts, 3, syncStride)

	// Synced LSN at each journal position: scan sync ops.
	rng := rand.New(rand.NewSource(107))
	total := fs.TotalWritten()
	points := 100
	if testing.Short() || raceEnabled {
		points = 20
	}
	for i := 0; i < points; i++ {
		x := 1 + rng.Int63n(total-1)
		got, rst := recoverAndResume(t, waltest.FSAt(fs.Journal, x, true), feed, specs, opts)
		durable := expectedLSN(boundaries, x)
		if rst.NextLSN > durable {
			t.Fatalf("power loss at byte %d: recovered LSN %d beyond the written prefix %d", x, rst.NextLSN, durable)
		}
		// At most syncStride acknowledged mutations (one group-commit
		// window) may be lost.
		if durable-rst.NextLSN > syncStride+1 {
			t.Fatalf("power loss at byte %d: lost %d mutations, more than one %d-wide commit window",
				x, durable-rst.NextLSN, syncStride)
		}
		if d := ref.diff(got); d != "" {
			t.Fatalf("power loss at byte %d (recovery %v): %s", x, rst, d)
		}
	}
}

// TestWALTortureLiveCrash exercises the in-process failure path the offline
// sweeps cannot: the running server hits the write error itself, mid-
// traffic, and must surface wal.ErrFailed on the unacknowledged mutation
// while everything acknowledged survives recovery.
func TestWALTortureLiveCrash(t *testing.T) {
	feed, specs := tortureFeed(t, 20, 109)
	opts := wal.Options{SegmentBytes: 16 << 10, Streams: 4}
	_, ref, _ := tortureRun(t, feed, specs, opts, 0, 0)

	rng := rand.New(rand.NewSource(109))
	for i := 0; i < 8; i++ {
		fs := waltest.NewMemFS()
		o := opts
		o.FS = fs
		sv, wlog, _, err := serve.Recover("wal", tortureCfg(2), o)
		if err != nil {
			t.Fatal(err)
		}
		fs.SetBudget(1 + rng.Int63n(60_000))
		acked := 0
		for j := range feed {
			if err := feed[j].apply(sv); err != nil {
				break
			}
			acked++
		}
		wlog.Close() // post-crash close must not panic
		if acked == len(feed) {
			continue // budget outlived the feed
		}
		fs.SetBudget(-1) // the new process image writes freely
		got, rst := recoverAndResume(t, fs, feed, specs, opts)
		if int(rst.NextLSN)-1 < acked {
			t.Fatalf("live crash after %d acked mutations: recovery has only %d — acknowledged data lost",
				acked, rst.NextLSN-1)
		}
		if d := ref.diff(got); d != "" {
			t.Fatalf("live crash run %d (recovery %v): %s", i, rst, d)
		}
	}
}

// TestWALBudgetAfterRecovery is the replay double-count guard: random
// interleavings of StartJob / Ingest / FinishJob / DropJob, crashed at a
// random byte and recovered, must leave MaxJobs/MaxTasks budget counters
// exactly equal to the budget of the recovered job set.
func TestWALBudgetAfterRecovery(t *testing.T) {
	rounds := 30
	if testing.Short() || raceEnabled {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(200 + round)))
		fs := waltest.NewMemFS()
		opts := wal.Options{SegmentBytes: 8 << 10, Streams: 4, FS: fs}
		cfg := tortureCfg(2)
		cfg.MaxJobs = 6
		cfg.MaxTasks = 200
		sv, wlog, _, err := serve.Recover("wal", cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		nextID := uint64(1)
		live := map[uint64]int{} // id -> len(events applied)
		spec := func(id uint64) wire.JobSpec {
			return wire.JobSpec{JobID: id, Schema: []string{"a", "b"}, NumTasks: 4 + int(id%7),
				TauStra: 10, Horizon: 100, Checkpoints: 4, WarmFrac: 0.2, Seed: id}
		}
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(10); {
			case r < 3: // register
				sp := spec(nextID)
				if err := sv.StartJob(sp, nil); err == nil {
					live[sp.JobID] = 0
				}
				nextID++
			case r < 8: // stream an event to a live job that still has some
				for id := range live {
					n := live[id]
					sp := spec(id)
					if n > 2*sp.NumTasks {
						continue // stream already closed
					}
					var e wire.Event
					switch {
					case n < sp.NumTasks:
						e = wire.Event{Kind: wire.EventTaskStart, JobID: id, TaskID: n, Time: float64(n)}
					case n < 2*sp.NumTasks:
						tid := n - sp.NumTasks
						e = wire.Event{Kind: wire.EventTaskFinish, JobID: id, TaskID: tid,
							Time: float64(sp.NumTasks + tid), Latency: float64(5 + tid)}
					default:
						e = wire.Event{Kind: wire.EventJobFinish, JobID: id, Time: 1000}
					}
					if err := sv.Ingest(e); err != nil {
						t.Fatalf("round %d op %d: %v", round, op, err)
					}
					live[id]++
					break
				}
			default: // drop a finished job
				for id, n := range live {
					if n > 2*spec(id).NumTasks { // past its JobFinish
						if err := sv.DropJob(id); err != nil {
							t.Fatalf("round %d: drop: %v", round, err)
						}
						delete(live, id)
						break
					}
				}
			}
			if op == 150 {
				if _, _, err := sv.CheckpointWAL(); err != nil {
					t.Fatal(err)
				}
			}
		}
		wlog.Close()

		crash := rng.Int63n(fs.TotalWritten()) + 1
		opts2 := wal.Options{SegmentBytes: 8 << 10, Streams: 4, FS: waltest.FSAt(fs.Journal, crash, false)}
		sv2, wal2, rst, err := serve.Recover("wal", cfg, opts2)
		if err != nil {
			t.Fatalf("round %d: recover at byte %d: %v", round, crash, err)
		}
		ids := sv2.JobIDs()
		var wantTasks int64
		for _, id := range ids {
			r, err := sv2.Report(id)
			if err != nil {
				t.Fatalf("round %d: listed job %d vanished: %v", round, id, err)
			}
			wantTasks += int64(r.Spec.NumTasks)
		}
		jobs, tasks := sv2.Budget()
		if jobs != int64(len(ids)) {
			t.Fatalf("round %d crash %d (recovery %v): job budget %d, %d jobs registered",
				round, crash, rst, jobs, len(ids))
		}
		if tasks != wantTasks {
			t.Fatalf("round %d crash %d (recovery %v): task budget %d, registered jobs hold %d",
				round, crash, rst, tasks, wantTasks)
		}
		wal2.Close()
	}
}

// TestWALTortureAutoCheckpoint runs the feed with the automatic checkpoint
// policy armed (size trigger) instead of explicit CheckpointWAL calls: the
// policy goroutine snapshots and retires segments concurrently with live
// traffic, and the crash sweep must still find every acknowledged mutation
// at every sampled byte offset — snapshot writes, segment retirements, and
// record appends interleave in the journal exactly as they raced live.
func TestWALTortureAutoCheckpoint(t *testing.T) {
	feed, specs := tortureFeed(t, 20, 127)
	fs := waltest.NewMemFS()
	opts := wal.Options{SegmentBytes: 16 << 10, CheckpointBytes: 64 << 10, Streams: 4, FS: fs}
	sv, wlog, _, err := serve.Recover("wal", tortureCfg(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := make([]int64, 0, len(feed))
	for i := range feed {
		if err := feed[i].apply(sv); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		boundaries = append(boundaries, fs.TotalWritten())
	}
	// The policy runs on its own goroutine; give the last poke a moment to
	// land, then stop it (Close waits the policy out) and check it really
	// checkpointed on its own.
	deadline := time.Now().Add(5 * time.Second)
	for wlog.Stats().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := wlog.Stats()
	// Close first: it waits the policy out, so no automatic snapshot can
	// be taken halfway through the reference capture and carry some of the
	// capture's own queries into what a crash image restores.
	wlog.Close()
	ref := captureState(t, sv, specs)
	if st.Checkpoints == 0 {
		t.Fatal("size-triggered policy never checkpointed")
	}
	if st.RetiredSegments == 0 {
		t.Error("automatic checkpoints retired no segments")
	}
	snaps, err := wal.ListSorted(fs, "wal", wal.SnapPrefix, wal.SnapSuffix)
	if err != nil || len(snaps) == 0 || len(snaps) > 2 {
		t.Fatalf("automatic checkpoints left %d snapshot generations (want 1-2): %v", len(snaps), err)
	}

	stride := 9
	if testing.Short() || raceEnabled {
		stride = 47
	}
	crashes := make([]int64, 0, len(fs.Journal))
	var off int64
	for _, op := range fs.Journal {
		if op.Kind == waltest.OpWrite {
			off += int64(len(op.Data))
			crashes = append(crashes, off)
		}
	}
	// Crash-sweep options leave the policy off: the sweep's reference is
	// the recorded feed, and recovery itself must not depend on the policy.
	sweepOpts := wal.Options{SegmentBytes: 16 << 10, Streams: 4}
	for i := 0; i < len(crashes); i += stride {
		x := crashes[i]
		got, rst := recoverAndResume(t, waltest.FSAt(fs.Journal, x, false), feed, specs, sweepOpts)
		// A checkpoint may be writing concurrently with a mutation's ack,
		// so the boundary map is exact on the lower bound (no acknowledged
		// mutation may be lost) and one-loose above, as everywhere else.
		want := expectedLSN(boundaries, x)
		if rst.NextLSN < want {
			t.Fatalf("auto-ckpt crash at byte %d: recovered LSN %d < %d — an acknowledged mutation was lost (%v)",
				x, rst.NextLSN, want, rst)
		}
		if rst.NextLSN > want+1 {
			t.Fatalf("auto-ckpt crash at byte %d: recovered LSN %d, acked %d — phantom records invented (%v)",
				x, rst.NextLSN, want, rst)
		}
		if d := ref.diff(got); d != "" {
			t.Fatalf("auto-ckpt crash at byte %d (recovery %v): %s", x, rst, d)
		}
	}
}

// TestWALTortureCrossStreamPowerLoss exercises the failure shape only a
// sharded log has: streams fsync at different moments (rotation syncs
// here), so dropping every unsynced byte leaves the streams cut at
// *different* LSNs — one stream keeps records whose cross-stream
// predecessors died. Recovery must truncate at the first hole, physically
// trim the orphans, and the re-fed run must still be bit-identical. The
// trimmed directory must also recover identically a second time
// (idempotent repair).
func TestWALTortureCrossStreamPowerLoss(t *testing.T) {
	feed, specs := tortureFeed(t, 20, 131)
	// SyncEvery an hour: only rotation syncs make bytes power-loss
	// durable, maximizing cross-stream skew. No explicit Sync calls.
	opts := wal.Options{SegmentBytes: 8 << 10, SyncEvery: time.Hour, Streams: 4}
	fs, ref, boundaries := tortureRun(t, feed, specs, opts, 0, 0)
	total := fs.TotalWritten()
	rng := rand.New(rand.NewSource(131))
	points := 60
	if testing.Short() || raceEnabled {
		points = 15
	}
	trimmedTotal := 0
	for i := 0; i < points; i++ {
		x := 1 + rng.Int63n(total-1)
		crashed := waltest.FSAt(fs.Journal, x, true)
		got, rst := recoverAndResume(t, crashed, feed, specs, opts)
		durable := expectedLSN(boundaries, x)
		if rst.NextLSN > durable {
			t.Fatalf("power loss at byte %d: recovered LSN %d beyond the written prefix %d (%v)",
				x, rst.NextLSN, durable, rst)
		}
		if d := ref.diff(got); d != "" {
			t.Fatalf("power loss at byte %d (recovery %v): %s", x, rst, d)
		}
		trimmedTotal += rst.RecordsTrimmed
	}
	if trimmedTotal == 0 {
		t.Error("no sweep point trimmed a cross-stream orphan; the hole path went unexercised")
	}

	// Idempotent repair: recover the final power-lost image once (which
	// trims), then recover the *trimmed* directory again without re-feeding
	// and require the same state and LSN.
	crashed := waltest.FSAt(fs.Journal, total*2/3, true)
	sv1, wal1, rst1, err := serve.Recover("wal", tortureCfg(2), wal.Options{SegmentBytes: 8 << 10, Streams: 4, FS: crashed})
	if err != nil {
		t.Fatal(err)
	}
	ids1 := sv1.JobIDs()
	wal1.Close()
	sv2, wal2, rst2, err := serve.Recover("wal", tortureCfg(3), wal.Options{SegmentBytes: 8 << 10, Streams: 4, FS: crashed})
	if err != nil {
		t.Fatalf("second recovery of a trimmed directory: %v", err)
	}
	defer wal2.Close()
	if rst2.NextLSN != rst1.NextLSN {
		t.Errorf("trimmed directory recovers to LSN %d, then %d — repair is not idempotent", rst1.NextLSN, rst2.NextLSN)
	}
	if rst2.RecordsTrimmed != 0 {
		t.Errorf("second recovery trimmed %d more records from an already-repaired directory", rst2.RecordsTrimmed)
	}
	if !reflect.DeepEqual(ids1, sv2.JobIDs()) {
		t.Error("trimmed directory recovers different job sets across passes")
	}
}
