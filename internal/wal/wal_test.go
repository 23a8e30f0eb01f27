package wal_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/servehttp"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

// walWorkload returns a small registered workload: specs plus each job's
// full event stream, and the sims for ground truth.
func walWorkload(t testing.TB, n int, seed uint64) ([]wire.JobSpec, [][]wire.Event) {
	t.Helper()
	jobs, sims := servetest.SmallJobs(t, n, seed)
	specs := make([]wire.JobSpec, n)
	streams := make([][]wire.Event, n)
	for i := range jobs {
		specs[i] = serve.SpecFor(sims[i], seed+uint64(i))
		streams[i] = serve.JobEvents(jobs[i], sims[i])
	}
	return specs, streams
}

// TestWALLogsAndRecovers drives a server under a WAL with no snapshot at
// all: recovery must rebuild the full state from the log alone, and the
// reopened WAL must keep assigning LSNs where the crashed one stopped.
func TestWALLogsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	specs, streams := walWorkload(t, 2, 53)

	sv, wlog, rst, err := serve.Recover(dir, servetest.CheapConfig(2), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rst.NextLSN != 1 || rst.SnapshotPath != "" {
		t.Fatalf("fresh dir recovery: %v", rst)
	}
	want := 0
	for i := range specs {
		if err := sv.StartJob(specs[i], nil); err != nil {
			t.Fatal(err)
		}
		want++
		if err := servetest.IngestBatch(sv, streams[i]); err != nil {
			t.Fatal(err)
		}
		want += len(streams[i])
	}
	if got := wlog.NextLSN(); got != uint64(want)+1 {
		t.Fatalf("NextLSN %d after %d mutations", got, want)
	}
	refStats := sv.Stats()
	refVerdicts := make([][]serve.TaskVerdict, len(specs))
	for i := range specs {
		refVerdicts[i], _ = sv.Query(specs[i].JobID, servetest.AllTaskIDs(specs[i].NumTasks))
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	sv2, wal2, rst2, err := serve.Recover(dir, servetest.CheapConfig(3), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if rst2.NextLSN != uint64(want)+1 || rst2.RecordsApplied != want {
		t.Fatalf("recovery %v, want %d applied", rst2, want)
	}
	for i := range specs {
		vs, err := sv2.Query(specs[i].JobID, servetest.AllTaskIDs(specs[i].NumTasks))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vs, refVerdicts[i]) {
			t.Errorf("job %d: recovered verdicts diverge", specs[i].JobID)
		}
	}
	st2 := sv2.Stats()
	if st2.Events != refStats.Events || st2.DroppedEvents != refStats.DroppedEvents ||
		st2.Terminations != refStats.Terminations || st2.Refits != refStats.Refits {
		t.Errorf("recovered stats diverge:\n crashed   %v\n recovered %v", refStats, st2)
	}
	// The recovered log keeps appending where the old one stopped.
	if err := sv2.DropJob(specs[0].JobID); err != nil {
		t.Fatal(err)
	}
	if got := wal2.NextLSN(); got != uint64(want)+2 {
		t.Errorf("NextLSN %d after drop, want %d", got, want+2)
	}
	// A latecomer event for the dropped job must be refused (the defunct
	// mark serve's drop path sets under the job lock) and must never
	// consume an LSN — nothing may be acknowledged after its job's drop
	// record is already logged.
	late := wire.Event{Kind: wire.EventHeartbeat, JobID: specs[0].JobID, Tick: 1, Features: []float64{1}}
	if err := sv2.Ingest(late); !errors.Is(err, serve.ErrUnknownJob) {
		t.Errorf("ingest after drop: err %v, want ErrUnknownJob", err)
	}
	if got := wal2.NextLSN(); got != uint64(want)+2 {
		t.Errorf("NextLSN %d after refused late event, want %d", got, want+2)
	}
}

// TestCheckpointWALRetires pins the checkpoint cycle: small segments force
// rotation, a checkpoint stamps the floor and retires covered segments
// (keeping the fallback generation's chain), and recovery afterwards
// replays only the uncovered tail.
func TestCheckpointWALRetires(t *testing.T) {
	dir := t.TempDir()
	specs, streams := walWorkload(t, 2, 59)
	sv, wlog, _, err := serve.Recover(dir, servetest.CheapConfig(1), wal.Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if err := sv.StartJob(specs[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := servetest.IngestBatch(sv, streams[0]); err != nil {
		t.Fatal(err)
	}
	if st := wlog.Stats(); st.Segments < 2 {
		t.Fatalf("4 KiB segments did not rotate: %+v", st)
	}
	path1, _, err := sv.CheckpointWAL()
	if err != nil {
		t.Fatal(err)
	}
	if err := servetest.IngestBatch(sv, streams[1][:len(streams[1])/2]); err != nil {
		t.Fatal(err)
	}
	// Second checkpoint: the first generation is kept as fallback, so
	// retirement stops at *its* floor — nothing between the two floors goes.
	path2, _, err := sv.CheckpointWAL()
	if err != nil {
		t.Fatal(err)
	}
	if path1 == path2 {
		t.Fatalf("checkpoints collide at %s", path1)
	}
	if _, err := os.Stat(path1); err != nil {
		t.Errorf("fallback snapshot generation pruned: %v", err)
	}
	// Third checkpoint: the first generation is pruned, the second becomes
	// the fallback, and every segment below its floor retires.
	if err := servetest.IngestBatch(sv, streams[1][len(streams[1])/2:]); err != nil {
		t.Fatal(err)
	}
	path3, retired, err := sv.CheckpointWAL()
	if err != nil {
		t.Fatal(err)
	}
	if retired == 0 {
		t.Error("third checkpoint retired no segments")
	}
	if _, err := os.Stat(path1); err == nil {
		t.Error("third checkpoint kept three snapshot generations")
	}
	refVerdicts, _ := sv.Query(specs[1].JobID, servetest.AllTaskIDs(specs[1].NumTasks))
	tail := wlog.NextLSN()
	wlog.Close()

	sv2, wal2, rst, err := serve.Recover(dir, servetest.CheapConfig(2), wal.Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if rst.SnapshotPath != path3 {
		t.Errorf("recovered from %s, want newest %s", rst.SnapshotPath, path3)
	}
	if rst.NextLSN != tail {
		t.Errorf("recovered NextLSN %d, want %d", rst.NextLSN, tail)
	}
	vs, err := sv2.Query(specs[1].JobID, servetest.AllTaskIDs(specs[1].NumTasks))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vs, refVerdicts) {
		t.Error("verdicts diverge after checkpointed recovery")
	}

	// Corrupt the newest snapshot: recovery must fall back to the previous
	// generation plus the retained log, not fail or restore garbage.
	b, err := os.ReadFile(path3)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path3, b, 0o644); err != nil {
		t.Fatal(err)
	}
	sv3, wal3, rst3, err := serve.Recover(dir, servetest.CheapConfig(1), wal.Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer wal3.Close()
	if rst3.SnapshotPath != path2 {
		t.Errorf("fallback recovered from %q, want %s", rst3.SnapshotPath, path2)
	}
	vs3, err := sv3.Query(specs[1].JobID, servetest.AllTaskIDs(specs[1].NumTasks))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vs3, refVerdicts) {
		t.Error("verdicts diverge after fallback recovery")
	}
}

// TestCheckpointCompactsDrops pins what a base holds: the spec and event
// frames of every job without a later drop, in log order. Job 1 runs,
// finishes and is dropped, then its ID is registered again; job 2 stays.
// The first base holds job 1's second life and job 2; a second checkpoint
// compacts that base plus the log above its floor, in which job 2 is
// dropped, into a base of job 1's second life alone — which recovers, and
// restores, to the never-crashed server's verdicts and reports (the dropped
// jobs' event counts go with them).
func TestCheckpointCompactsDrops(t *testing.T) {
	fs := waltest.NewMemFS()
	sv, wlog, _, err := serve.Recover("wal", tortureCfg(2), wal.Options{SegmentBytes: 1 << 10, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	spec := func(id, seed uint64) wire.JobSpec {
		return wire.JobSpec{JobID: id, Schema: []string{"a"}, NumTasks: 3, TauStra: 10,
			Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: seed}
	}
	run := func(sp wire.JobSpec, finish bool) {
		t.Helper()
		if err := sv.StartJob(sp, nil); err != nil {
			t.Fatal(err)
		}
		for tid := 0; tid < sp.NumTasks; tid++ {
			evs := []wire.Event{
				{Kind: wire.EventTaskStart, JobID: sp.JobID, TaskID: tid, Time: float64(tid)},
				{Kind: wire.EventHeartbeat, JobID: sp.JobID, TaskID: tid, Time: 20, Tick: 1, Features: []float64{float64(tid)}},
			}
			if err := servetest.IngestBatch(sv, evs); err != nil {
				t.Fatal(err)
			}
		}
		if finish {
			if err := servetest.FinishJob(sv, sp.JobID, 100); err != nil {
				t.Fatal(err)
			}
		}
	}
	jobsIn := func(path string) map[uint64]int {
		t.Helper()
		b := fs.Files[path]
		frames := map[uint64]int{}
		for off := wire.HeaderLen; off < len(b); {
			kind, payload, n, err := wire.DecodeFrame(b[off:])
			if err != nil {
				t.Fatalf("%s at byte %d: %v", path, off, err)
			}
			if kind != wire.FrameSpec && kind != wire.FrameEvent {
				t.Fatalf("%s holds frame kind %d", path, kind)
			}
			id, err := wire.FrameJobID(kind, payload)
			if err != nil {
				t.Fatal(err)
			}
			frames[id]++
			off += n
		}
		return frames
	}

	run(spec(1, 7), true)
	if err := sv.DropJob(1); err != nil {
		t.Fatal(err)
	}
	run(spec(1, 8), false)
	run(spec(2, 9), true)
	first, _, err := sv.CheckpointWAL()
	if err != nil {
		t.Fatal(err)
	}
	// Each unfinished life is a spec plus two events per task.
	if got, want := jobsIn(first), map[uint64]int{1: 7, 2: 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("first base: frames per job %v, want %v", got, want)
	}

	if err := sv.DropJob(2); err != nil {
		t.Fatal(err)
	}
	if err := servetest.FinishJob(sv, 1, 100); err != nil {
		t.Fatal(err)
	}
	second, _, err := sv.CheckpointWAL()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jobsIn(second), map[uint64]int{1: 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("second base: frames per job %v, want %v", got, want)
	}
	if _, ok := fs.Files[first]; !ok {
		t.Errorf("the base %s the second was compacted from was pruned", first)
	}
	ref := captureState(t, sv, []wire.JobSpec{spec(1, 8)})

	sv2, wal2, rst, err := serve.Recover("wal", tortureCfg(3), wal.Options{FS: waltest.FSAt(fs.Journal, fs.TotalWritten(), false)})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if rst.SnapshotPath != second || rst.RecordsApplied != 0 {
		t.Errorf("recovery %v, want the second base and nothing past it", rst)
	}
	restored, err := serve.RestoreServer(bytes.NewReader(fs.Files[second]), tortureCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*serve.Server{"recovered": sv2, "restored": restored} {
		st := captureState(t, got, []wire.JobSpec{spec(1, 8)})
		if !reflect.DeepEqual(st.reports, ref.reports) || !reflect.DeepEqual(st.verdicts, ref.verdicts) {
			t.Errorf("%s from the second base: reports %+v, want %+v", name, st.reports, ref.reports)
		}
	}
}

// TestCheckpointLeaksNothing: compaction opens the previous base and the
// segments below its floor, and a snapshot opens the new base. A full
// cycle on the real filesystem — Recover, traffic, checkpoints, a
// snapshot, Close — must leave the process's open file descriptors and
// goroutines where they were (refit workers exit once idle, so the count is
// polled with a deadline). GC is off meanwhile: a leaked *os.File's
// finalizer would otherwise close it and hide the leak.
func TestCheckpointLeaksNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	fd0, g0 := fds(), runtime.NumGoroutine()
	specs, streams := walWorkload(t, 3, 131)
	sv, wlog, _, err := serve.Recover(t.TempDir(), servetest.CheapConfig(2),
		wal.Options{SegmentBytes: 4 << 10, SyncEvery: time.Millisecond, CheckpointBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if err := sv.StartJob(specs[i], nil); err != nil {
			t.Fatal(err)
		}
		if err := servetest.IngestBatch(sv, streams[i]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sv.CheckpointWAL(); err != nil {
			t.Fatal(err)
		}
	}
	if st := wlog.Stats(); st.Checkpoints < 3 || st.RetiredSegments == 0 {
		t.Fatalf("want >= 3 checkpoints retiring segments: %+v", st)
	}
	if err := sv.Snapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for (fds() > fd0 || runtime.NumGoroutine() > g0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fd, g := fds(), runtime.NumGoroutine(); fd > fd0 || g > g0 {
		t.Errorf("after Close: %d open files (baseline %d), %d goroutines (baseline %d)", fd, fd0, g, g0)
	}
}

// copyDir copies the flat directory src into a fresh temporary directory
// and returns its path, so a test can recover a checked-in log without
// touching the original.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// dirImage maps every file in the flat directory dir to its bytes.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestRecoverErrors pins the operator-facing failure modes: a missing
// directory and a log with a hole both fail with clean typed errors, and a
// *.seg file of a layout this build does not read — every earlier writer's,
// the envelope-record wal-0000-<stamp>.seg included — fails Recover and
// Verify by name without either touching the directory.
func TestRecoverErrors(t *testing.T) {
	if _, _, _, err := serve.Recover(filepath.Join(t.TempDir(), "absent"), servetest.CheapConfig(1), wal.Options{}); err == nil {
		t.Error("recover from a missing directory succeeded")
	}

	dir := t.TempDir()
	specs, streams := walWorkload(t, 1, 67)
	sv, wlog, _, err := serve.Recover(dir, servetest.CheapConfig(1), wal.Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.StartJob(specs[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := servetest.IngestBatch(sv, streams[0]); err != nil {
		t.Fatal(err)
	}
	wlog.Close()
	segs, err := wal.ListSegs(wal.OSFS, dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >= 3 segments for the gap test, have %d (%v)", len(segs), err)
	}
	if err := os.Remove(filepath.Join(dir, segs[1].Name)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := serve.Recover(dir, servetest.CheapConfig(1), wal.Options{}); !errors.Is(err, wal.ErrGap) {
		t.Errorf("recovery across a deleted segment: %v (want wal.ErrGap)", err)
	}

	// An earlier writer's single-stream segment (an LSN-mark header, the
	// retired kind 5) and batched-commit file (a bare stream header), and a
	// snapshot of the retired snapshot format, each beside a valid log; a
	// directory the two-stream writer left (testdata/two-stream); and one
	// the envelope-record writer left at one stream (testdata/one-stream, a
	// snapshot plus a log tail), each failing on its first retired entry.
	var mark wire.Enc
	mark.U64(1)
	markSeg := wire.AppendFrame(wire.AppendHeader(nil), 5, mark.B)
	for _, tc := range []struct {
		name string
		dir  func() string
	}{
		{"wal-0000000000000001.seg", func() string {
			return besideValidLog(t, specs[0], "wal-0000000000000001.seg", markSeg)
		}},
		{"commit-0000000000000001.seg", func() string {
			return besideValidLog(t, specs[0], "commit-0000000000000001.seg", wire.AppendHeader(nil))
		}},
		{"snap-00000000000000cb.snap", func() string {
			return besideValidLog(t, specs[0], "snap-00000000000000cb.snap", markSeg)
		}},
		{"wal-0000-0000000000000003.seg", func() string { return copyDir(t, filepath.Join("testdata", "two-stream")) }},
		{"snap-00000000000000af.snap", func() string { return copyDir(t, filepath.Join("testdata", "one-stream")) }},
	} {
		dir := tc.dir()
		before := dirImage(t, dir)
		_, _, _, err = serve.Recover(dir, servetest.CheapConfig(1), wal.Options{})
		if err == nil || !strings.Contains(err.Error(), "serve") || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("recovery beside %s: %v (want an error naming it)", tc.name, err)
		}
		if _, err := wal.Verify(dir, wal.Options{}); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("verify beside %s: %v (want an error naming it)", tc.name, err)
		}
		if !reflect.DeepEqual(before, dirImage(t, dir)) {
			t.Errorf("recovery or verify beside %s changed the directory", tc.name)
		}
	}
}

// besideValidLog returns a fresh directory holding a valid log of one
// registration plus the file name with bytes b.
func besideValidLog(t *testing.T, sp wire.JobSpec, name string, b []byte) string {
	t.Helper()
	dir := t.TempDir()
	sv, wlog, _, err := serve.Recover(dir, servetest.CheapConfig(1), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.StartJob(sp, nil); err != nil {
		t.Fatal(err)
	}
	wlog.Close()
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRecoverRefusesNodeLayout: a WAL root written by the multi-node server
// holds only node-000/, node-001/, … each with its own log. Recovering the
// root must fail naming the subdirectory — not start an empty server that
// appends beside the logged jobs — and Verify must agree, with the tree
// left byte-identical.
func TestRecoverRefusesNodeLayout(t *testing.T) {
	root := t.TempDir()
	specs, _ := walWorkload(t, 1, 73)
	node := filepath.Join(root, "node-000")
	if err := os.Mkdir(node, 0o755); err != nil {
		t.Fatal(err)
	}
	sv, wlog, _, err := serve.Recover(node, servetest.CheapConfig(1), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.StartJob(specs[0], nil); err != nil {
		t.Fatal(err)
	}
	wlog.Close()

	image := func() map[string]string {
		files := map[string]string{}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			files[path] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	before := image()
	if len(before) == 0 {
		t.Fatal("node-000 holds no segment")
	}
	_, _, _, err = serve.Recover(root, servetest.CheapConfig(1), wal.Options{})
	if err == nil || !strings.Contains(err.Error(), "node-000") || !strings.Contains(err.Error(), "no longer reads") {
		t.Errorf("recovery of a multi-node root: %v (want an error naming node-000)", err)
	}
	if _, err := wal.Verify(root, wal.Options{}); err == nil || !strings.Contains(err.Error(), "node-000") {
		t.Errorf("verify of a multi-node root: %v (want an error naming node-000)", err)
	}
	if !reflect.DeepEqual(before, image()) {
		t.Error("recovery or verify of a multi-node root changed the tree")
	}
}

// TestWALStatsHTTP is the table-driven /stats contract for the WAL fields:
// the JSON names operators script against, present exactly when the server
// runs with a WAL and advancing as traffic and syncs happen.
func TestWALStatsHTTP(t *testing.T) {
	dir := t.TempDir()
	specs, streams := walWorkload(t, 1, 71)
	sv, wlog, _, err := serve.Recover(dir, servetest.CheapConfig(1), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()

	fetch := func(t *testing.T, h http.Handler) map[string]any {
		t.Helper()
		srv := httptest.NewServer(h)
		defer srv.Close()
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	for _, tc := range []struct {
		name    string
		prep    func(t *testing.T)
		sv      *serve.Server
		wantWAL bool
		check   func(t *testing.T, wlog map[string]any)
	}{
		{
			name:    "no WAL, no wal object",
			sv:      serve.NewServer(servetest.CheapConfig(1)),
			wantWAL: false,
		},
		{
			name:    "fresh WAL",
			sv:      sv,
			wantWAL: true,
			check: func(t *testing.T, w map[string]any) {
				if got := w["next_lsn"].(float64); got != 1 {
					t.Errorf("next_lsn = %v, want 1", got)
				}
				// Segment files are created lazily on the first append; a
				// fresh log holds none.
				if got := w["segments"].(float64); got != 0 {
					t.Errorf("segments = %v, want 0", got)
				}
			},
		},
		{
			name: "after traffic",
			prep: func(t *testing.T) {
				if err := sv.StartJob(specs[0], nil); err != nil {
					t.Fatal(err)
				}
				if err := servetest.IngestBatch(sv, streams[0]); err != nil {
					t.Fatal(err)
				}
			},
			sv:      sv,
			wantWAL: true,
			check: func(t *testing.T, w map[string]any) {
				wantLSN := float64(1 + 1 + len(streams[0]))
				if got := w["next_lsn"].(float64); got != wantLSN {
					t.Errorf("next_lsn = %v, want %v", got, wantLSN)
				}
				if got := w["appends"].(float64); got != wantLSN-1 {
					t.Errorf("appends = %v, want %v", got, wantLSN-1)
				}
				// SyncEvery 0 syncs every append: no group-commit backlog,
				// no fsync lag.
				if got := w["pending_bytes"].(float64); got != 0 {
					t.Errorf("pending_bytes = %v, want 0", got)
				}
				if got := w["fsync_lag_ns"].(float64); got != 0 {
					t.Errorf("fsync_lag_ns = %v, want 0", got)
				}
				if got := w["bytes"].(float64); got <= 0 {
					t.Errorf("bytes = %v, want > 0", got)
				}
			},
		},
		{
			name: "after checkpoint",
			prep: func(t *testing.T) {
				if _, _, err := sv.CheckpointWAL(); err != nil {
					t.Fatal(err)
				}
			},
			sv:      sv,
			wantWAL: true,
			check: func(t *testing.T, w map[string]any) {
				for _, key := range []string{"segments", "next_lsn", "appends",
					"bytes", "syncs", "pending_bytes", "fsync_lag_ns", "retired_segments",
					"checkpoints", "checkpoint_failures"} {
					if _, ok := w[key]; !ok {
						t.Errorf("stats missing %q", key)
					}
				}
				if len(w) != 10 {
					t.Errorf("stats carry %d keys, want the 10 above: %v", len(w), w)
				}
				if got := w["checkpoints"].(float64); got != 1 {
					t.Errorf("checkpoints = %v, want 1", got)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.prep != nil {
				tc.prep(t)
			}
			m := fetch(t, servehttp.NewHandler(tc.sv))
			w, ok := m["WAL"].(map[string]any)
			if ok != tc.wantWAL {
				t.Fatalf("WAL object present=%v, want %v (stats: %v)", ok, tc.wantWAL, m)
			}
			if tc.check != nil {
				tc.check(t, w)
			}
		})
	}
}

// TestWALGroupCommitLag: with a long SyncEvery the backlog accumulates
// (pending bytes and fsync lag visible in stats) until an explicit Sync
// drains it.
func TestWALGroupCommitLag(t *testing.T) {
	dir := t.TempDir()
	specs, streams := walWorkload(t, 1, 73)
	sv, wlog, _, err := serve.Recover(dir, servetest.CheapConfig(1), wal.Options{SyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	if err := sv.StartJob(specs[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := servetest.IngestBatch(sv, streams[0][:10]); err != nil {
		t.Fatal(err)
	}
	st := wlog.Stats()
	if st.PendingBytes == 0 {
		t.Error("group commit shows no pending bytes after unsynced appends")
	}
	if st.FsyncLag <= 0 {
		t.Error("group commit shows no fsync lag after unsynced appends")
	}
	if err := wlog.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := wlog.Stats(); st.PendingBytes != 0 || st.FsyncLag != 0 {
		t.Errorf("backlog not drained by Sync: %+v", st)
	}
}

// TestIngestRejectsUnloggableEvent: an event the wire format cannot
// round-trip (features beyond the wire cap, reachable only in-process) is
// rejected before it touches any state — applying it while refusing to log
// it would fork the live server from its recoverable image.
func TestIngestRejectsUnloggableEvent(t *testing.T) {
	dir := t.TempDir()
	specs, streams := walWorkload(t, 1, 89)
	sv, wlog, _, err := serve.Recover(dir, servetest.CheapConfig(1), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	if err := sv.StartJob(specs[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := servetest.IngestBatch(sv, streams[0][:4]); err != nil {
		t.Fatal(err)
	}
	before, lsnBefore := sv.Stats(), wlog.NextLSN()
	huge := wire.Event{Kind: wire.EventHeartbeat, JobID: specs[0].JobID, TaskID: 0, Time: 1e9,
		Features: make([]float64, wire.MaxWireFeatures+1)}
	if err := sv.Ingest(huge); err == nil {
		t.Fatal("oversized-features event was accepted")
	}
	after := sv.Stats()
	before.WAL, after.WAL = nil, nil
	if !reflect.DeepEqual(before, after) {
		t.Errorf("rejected event changed stats:\n before %v\n after  %v", before, after)
	}
	if got := wlog.NextLSN(); got != lsnBefore {
		t.Errorf("rejected event consumed LSN %d", got-1)
	}
}

// FuzzWALRecover feeds arbitrary bytes to the recovery path as the lone
// segment of a WAL directory, or (asBase) as the checkpoint base beside a
// real segment. The invariants: never panic; recover a prefix or fail typed;
// never double-apply (the budget counters always equal the recovered job
// set); and the recovered LSN never exceeds the number of frames the input
// (with the real segment) could possibly hold.
func FuzzWALRecover(f *testing.F) {
	// Seed with a *tiny* real segment covering every record kind (spec,
	// events, finish, drop), built over the in-memory filesystem. Small
	// matters: the engine minimizes interesting mutations with O(len)
	// executions, so a kilobyte seed keeps the fuzz loop productive where a
	// full trace job's 45 KB segment would stall it.
	seedFS := waltest.NewMemFS()
	sv, wlog, _, err := serve.Recover("wal", servetest.CheapConfig(1), wal.Options{FS: seedFS})
	if err != nil {
		f.Fatal(err)
	}
	sp := wire.JobSpec{JobID: 1, Schema: []string{"cpu", "mem"}, NumTasks: 3, TauStra: 10,
		StragglerQuantile: 0.9, Horizon: 10, Checkpoints: 4, WarmFrac: 0.2, Seed: 7}
	if err := sv.StartJob(sp, nil); err != nil {
		f.Fatal(err)
	}
	for tid := 0; tid < sp.NumTasks; tid++ {
		evs := []wire.Event{
			{Kind: wire.EventTaskStart, JobID: 1, TaskID: tid, Time: float64(tid)},
			{Kind: wire.EventHeartbeat, JobID: 1, TaskID: tid, Time: float64(tid) + 0.5, Tick: 1, Features: []float64{1, 2}},
			{Kind: wire.EventTaskFinish, JobID: 1, TaskID: tid, Time: float64(tid) + 3, Latency: 3},
		}
		if err := servetest.IngestBatch(sv, evs); err != nil {
			f.Fatal(err)
		}
	}
	// A checkpoint before the finish and the drop: the directory then holds
	// a base, and the segment goes on past its floor.
	basePath, _, err := sv.CheckpointWAL()
	if err != nil {
		f.Fatal(err)
	}
	baseName := "wal/" + filepath.Base(basePath)
	if err := servetest.FinishJob(sv, 1, 20); err != nil {
		f.Fatal(err)
	}
	if err := sv.DropJob(1); err != nil {
		f.Fatal(err)
	}
	wlog.Close()
	seed := seedFS.Files["wal/"+wal.SegName(1)]
	base := seedFS.Files[baseName]
	if len(seed) == 0 || len(base) == 0 {
		f.Fatal("no seed segment or base bytes")
	}
	seedRecords := 0
	for off := wire.HeaderLen; off < len(seed); seedRecords++ {
		_, _, n, err := wire.DecodeFrame(seed[off:])
		if err != nil {
			f.Fatal(err)
		}
		off += n
	}
	// The same records in earlier writers' layouts, hostile input when
	// planted as a segment: under an LSN-mark header (the single-stream
	// layout: the retired kind 5 where the segment header belongs), and
	// wrapped in the retired kind-8 envelope (explicit LSN, then the
	// record's kind).
	var mark wire.Enc
	mark.U64(1)
	markSeed := wire.AppendFrame(wire.AppendHeader(nil), 5, mark.B)
	var envelopeSeed []byte
	for off, lsn := wire.HeaderLen, uint64(0); off < len(seed); lsn++ {
		kind, payload, n, err := wire.DecodeFrame(seed[off:])
		if err != nil {
			f.Fatal(err)
		}
		if lsn == 0 { // the segment header
			markSeed = append(markSeed, seed[off+n:]...)
			envelopeSeed = append(wire.AppendHeader(nil), seed[off:off+n]...)
		} else {
			var e wire.Enc
			e.U64(lsn)
			e.U8(uint8(kind))
			envelopeSeed = wire.AppendFrame(envelopeSeed, 8, append(e.B, payload...))
		}
		off += n
	}
	for _, s := range [][]byte{seed, markSeed, envelopeSeed} {
		f.Add(s, false)
		f.Add(s[:len(s)/2], false)
		mut := append([]byte(nil), s...)
		mut[len(s)/3] ^= 0x20
		f.Add(mut, false)
	}
	// The real segment cut at each frame boundary: the torn tails a crash
	// leaves.
	for off := wire.HeaderLen; off < len(seed); {
		f.Add(seed[:off], false)
		_, _, n, err := wire.DecodeFrame(seed[off:])
		if err != nil {
			f.Fatal(err)
		}
		off += n
	}
	f.Add([]byte{}, false)
	// The real base, cut and flipped: a damaged base falls back to a
	// full-log replay of the segment beside it.
	f.Add(base, true)
	f.Add(base[:len(base)/2], true)
	mut := append([]byte(nil), base...)
	mut[len(base)/3] ^= 0x20
	f.Add(mut, true)

	f.Fuzz(func(t *testing.T, data []byte, asBase bool) {
		// An in-memory filesystem keeps each exec free of disk syscalls.
		fs := waltest.NewMemFS()
		name, maxRecords := "wal/"+wal.SegName(1), uint64(len(data)/5+1)
		if asBase {
			name, maxRecords = baseName, uint64(seedRecords)
			fs.Files["wal/"+wal.SegName(1)] = append([]byte(nil), seed...)
			fs.Synced["wal/"+wal.SegName(1)] = len(seed)
		}
		fs.Files[name] = append([]byte(nil), data...)
		fs.Synced[name] = len(data)
		// A tight task budget keeps hostile-but-valid spec frames from
		// allocating real memory; rejections surface as typed errors.
		cfg := servetest.CheapConfig(1)
		cfg.MaxTasks = 1 << 12
		sv, wlog, rst, err := serve.Recover("wal", cfg, wal.Options{FS: fs})
		if err != nil {
			if !strings.Contains(err.Error(), "serve") {
				t.Fatalf("untyped recovery error: %v", err)
			}
			return
		}
		defer wlog.Close()
		if rst.NextLSN-1 > maxRecords {
			t.Fatalf("recovered %d records from %d bytes (base %v)", rst.NextLSN-1, len(data), asBase)
		}
		// No double-apply: budget counters must equal the recovered job set.
		ids := sv.JobIDs()
		jobs, tasks := sv.Budget()
		if jobs != int64(len(ids)) {
			t.Fatalf("job budget %d, %d jobs registered", jobs, len(ids))
		}
		var wantTasks int64
		for _, id := range ids {
			if r, err := sv.Report(id); err == nil {
				wantTasks += int64(r.Spec.NumTasks)
			}
		}
		if tasks != wantTasks {
			t.Fatalf("task budget %d, registered jobs hold %d", tasks, wantTasks)
		}
	})
}

// TestWALAutoCheckpointTimer pins the wall-clock trigger: with
// CheckpointEvery armed and no explicit CheckpointWAL call, snapshots
// appear in the directory on their own, /stats counts them, and a recovery
// restores from the newest one.
func TestWALAutoCheckpointTimer(t *testing.T) {
	dir := t.TempDir()
	specs, streams := walWorkload(t, 1, 91)
	sv, wlog, _, err := serve.Recover(dir, servetest.CheapConfig(1), wal.Options{CheckpointEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.StartJob(specs[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := servetest.IngestBatch(sv, streams[0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for wlog.Stats().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if wlog.Stats().Checkpoints == 0 {
		t.Fatal("timer-triggered policy never checkpointed")
	}
	refVerdicts, _ := sv.Query(specs[0].JobID, servetest.AllTaskIDs(specs[0].NumTasks))
	wlog.Close()
	snaps, err := wal.ListSorted(wal.OSFS, dir, wal.SnapPrefix, wal.SnapSuffix)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot files after automatic checkpoints (%v)", err)
	}
	sv2, wal2, rst, err := serve.Recover(dir, servetest.CheapConfig(2), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if rst.SnapshotPath == "" {
		t.Error("recovery ignored the automatic checkpoints")
	}
	vs, err := sv2.Query(specs[0].JobID, servetest.AllTaskIDs(specs[0].NumTasks))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vs, refVerdicts) {
		t.Error("verdicts diverge after recovering from an automatic checkpoint")
	}
}

// TestVerifyWALReadOnly pins the offline verifier's contract from inside
// the package: over a power-lost directory it must report the exact LSN
// Recover would land on, while writing absolutely nothing.
func TestVerifyWALReadOnly(t *testing.T) {
	specs, streams := walWorkload(t, 4, 101)
	fs := waltest.NewMemFS()
	opts := wal.Options{SegmentBytes: 1 << 10, SyncEvery: time.Hour, FS: fs}
	sv, wlog, _, err := serve.Recover("wal", servetest.CheapConfig(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if err := sv.StartJob(specs[i], nil); err != nil {
			t.Fatal(err)
		}
		if err := servetest.IngestBatch(sv, streams[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := sv.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic, then abandon the WAL without Close (a
	// crash): only rotation syncs made bytes power-loss durable, so the
	// power loss below cuts the log back to the last rotation.
	for job := uint64(1000); job < 1024; job++ {
		sp := wire.JobSpec{JobID: job, Schema: []string{"cpu"}, NumTasks: 4, TauStra: 10,
			Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: job}
		if err := sv.StartJob(sp, nil); err != nil {
			t.Fatal(err)
		}
		for tid := 0; tid < 4; tid++ {
			if err := sv.Ingest(wire.Event{Kind: wire.EventTaskStart, JobID: job, TaskID: tid,
				Time: float64(tid)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// wlog is abandoned: the crash below is the end of this process image.

	crashed := waltest.FSAt(fs.Journal, fs.TotalWritten(), true)
	snapshotFiles := func(m *waltest.MemFS) map[string]string {
		out := make(map[string]string, len(m.Files))
		for name, b := range m.Files {
			out[name] = string(b)
		}
		return out
	}
	before := snapshotFiles(crashed)
	rep, err := wal.Verify("wal", wal.Options{FS: crashed})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, snapshotFiles(crashed)) {
		t.Fatal("wal.Verify modified the directory")
	}
	if len(crashed.Journal) != 0 {
		t.Fatalf("wal.Verify performed %d write operations", len(crashed.Journal))
	}
	if rep.SnapshotPath == "" || rep.Records == 0 || rep.LastLSN == 0 {
		t.Fatalf("empty verify report: %+v", rep)
	}
	if rep.NextLSN >= wlog.NextLSN() {
		t.Errorf("power loss of an hour-long group-commit window lost nothing: recoverable LSN %d, %d assigned", rep.NextLSN, wlog.NextLSN()-1)
	}
	if s := rep.String(); !strings.Contains(s, "recoverable LSN") || !strings.Contains(s, "log: ") {
		t.Errorf("report rendering incomplete:\n%s", s)
	}

	// The verifier's promise: Recover lands exactly on rep.NextLSN.
	_, wal2, rst, err := serve.Recover("wal", servetest.CheapConfig(2), wal.Options{FS: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if rst.NextLSN != rep.NextLSN {
		t.Errorf("Recover reached LSN %d, wal.Verify promised %d", rst.NextLSN, rep.NextLSN)
	}
}

// gateFS wraps a wal.FS so a test can stall one file's record write — the
// shape of a goroutine preempted (or an I/O path stuck) inside write(2).
// The stalled writer announces itself on arrived before parking on gate.
type gateFS struct {
	wal.FS
	gate    chan struct{} // the gated write blocks until this closes
	arrived chan struct{}
	match   func(name string) bool
	writes  atomic.Int32
}

type gatedFile struct {
	wal.File
	fs *gateFS
}

func (g *gateFS) Create(name string) (wal.File, error) {
	f, err := g.FS.Create(name)
	if err != nil || !g.match(name) {
		return f, err
	}
	return &gatedFile{File: f, fs: g}, nil
}

func (f *gatedFile) Write(p []byte) (int, error) {
	// The first write of a fresh segment is its header, written before any
	// LSN is claimed; only the record write (the second) is the dangerous
	// in-flight window, so gate that one.
	if f.fs.writes.Add(1) == 2 {
		select {
		case f.fs.arrived <- struct{}{}:
		default:
		}
		<-f.fs.gate
	}
	return f.File.Write(p)
}

// TestWALAckWaitsForLowerLSNs: an append must not be acknowledged while a
// lower LSN is still inside its write — otherwise a process crash in that
// window leaves a hole below acknowledged data. The gated filesystem
// freezes job A's registration inside its record write (LSN already
// claimed); job B's registration (a higher LSN) must stay unacknowledged
// until A's write completes.
func TestWALAckWaitsForLowerLSNs(t *testing.T) {
	mem := waltest.NewMemFS()
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	jobA, jobB := uint64(1), uint64(2)
	fs := &gateFS{FS: mem, gate: gate, arrived: make(chan struct{}, 1),
		match: func(name string) bool { return strings.HasPrefix(name, "wal/"+wal.SegPrefix) }}
	sv, wlog, _, err := serve.Recover("wal", servetest.CheapConfig(2), wal.Options{SyncEvery: time.Hour, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	defer release() // must open the gate before Close can drain stream A

	spec := func(id uint64) wire.JobSpec {
		return wire.JobSpec{JobID: id, Schema: []string{"c"}, NumTasks: 2, TauStra: 10,
			Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: id}
	}
	// Stream A's registration claims the lower LSN and parks inside its
	// record write.
	ackA := make(chan error, 1)
	go func() { ackA <- sv.StartJob(spec(jobA), nil) }()
	select {
	case <-fs.arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("stream A never reached its gated record write")
	}

	// Stream B's registration takes a higher LSN, writes it, and must now
	// block in the watermark wait instead of acknowledging.
	ackB := make(chan error, 1)
	go func() { ackB <- sv.StartJob(spec(jobB), nil) }()
	select {
	case err := <-ackB:
		t.Fatalf("sibling-stream append acknowledged (err=%v) while a lower LSN was still being written — "+
			"a crash now would make recovery trim an acknowledged record", err)
	case <-time.After(100 * time.Millisecond):
	}

	release() // A's write completes
	for _, ch := range []chan error{ackA, ackB} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("append never acknowledged after the gate opened")
		}
	}
	if got := wlog.NextLSN(); got != 3 {
		t.Fatalf("NextLSN %d after two registrations, want 3", got)
	}
}

// roFS simulates an unwritable WAL directory: reads work, creates fail.
type roFS struct{ wal.FS }

func (roFS) Create(string) (wal.File, error) {
	return nil, fmt.Errorf("read-only filesystem")
}

// TestRecoverUnwritableDir: segment creation is lazy, so Recover must
// probe writability itself — an unwritable directory has to fail loudly at
// startup, not wedge the first mutation with a 503 after the server is
// already serving traffic.
func TestRecoverUnwritableDir(t *testing.T) {
	mem := waltest.NewMemFS()
	// A valid existing log that recovery can read.
	sv, wlog, _, err := serve.Recover("wal", servetest.CheapConfig(1), wal.Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	sp := wire.JobSpec{JobID: 3, Schema: []string{"c"}, NumTasks: 2, TauStra: 10,
		Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: 3}
	if err := sv.StartJob(sp, nil); err != nil {
		t.Fatal(err)
	}
	wlog.Close()

	_, _, _, err = serve.Recover("wal", servetest.CheapConfig(1), wal.Options{FS: roFS{mem}})
	if err == nil {
		t.Fatal("recovery over an unwritable directory succeeded; the first mutation would 503 instead")
	}
	if !strings.Contains(err.Error(), "not writable") {
		t.Errorf("unwritable-dir error %q does not say so", err)
	}
}

// commitSpec builds a minimal valid job spec for tests that drive the WAL
// directly with hand-picked job IDs.
func commitSpec(id uint64) wire.JobSpec {
	return wire.JobSpec{JobID: id, Schema: []string{"c"}, NumTasks: 2, TauStra: 10,
		Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: id}
}

// --- the shared fsync at SyncEvery 0 ---

// syncGateFS parks the first fsync of a segment file until gate closes
// (announcing itself on arrived), and records, as each fsync returns, how
// many segment bytes had been written when it began: what a completed fsync
// is known to cover.
type syncGateFS struct {
	wal.FS
	gate, arrived chan struct{}

	mu      sync.Mutex
	written int // segment bytes written so far
	durable int // segment bytes covered by a returned fsync
	syncs   int
}

type syncGateFile struct {
	wal.File
	fs *syncGateFS
}

func (g *syncGateFS) Create(name string) (wal.File, error) {
	f, err := g.FS.Create(name)
	if err != nil || !strings.HasSuffix(name, wal.SegSuffix) {
		return f, err
	}
	return &syncGateFile{File: f, fs: g}, nil
}

func (f *syncGateFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.written += n
	f.fs.mu.Unlock()
	return n, err
}

func (f *syncGateFile) Sync() error {
	g := f.fs
	g.mu.Lock()
	g.syncs++
	first, covered := g.syncs == 1, g.written
	g.mu.Unlock()
	if first {
		g.arrived <- struct{}{}
		<-g.gate
	}
	err := f.File.Sync()
	g.mu.Lock()
	g.durable = max(g.durable, covered)
	g.mu.Unlock()
	return err
}

// TestWALCommitsShareFsync: at SyncEvery 0 the first commit parks inside
// its fsync while K more commits write their records behind it. When the
// gate opens, the K+1 commits must have cost at most two fsyncs — the
// parked one and one covering every record queued behind it — and no
// commit may return before an fsync that covers its bytes has returned.
func TestWALCommitsShareFsync(t *testing.T) {
	const k = 8
	mem := waltest.NewMemFS()
	g := &syncGateFS{FS: mem, gate: make(chan struct{}), arrived: make(chan struct{}, 1)}
	_, wlog, _, err := serve.Recover("wal", servetest.CheapConfig(1), wal.Options{FS: g})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release := func() { once.Do(func() { close(g.gate) }) }
	defer wlog.Close()
	defer release() // must open the gate before Close can take the parked fsync's lock
	type ack struct {
		lsn     uint64
		durable int
		err     error
	}
	acks := make(chan ack, k+1)
	commit := func(task int) {
		ev := wire.Event{Kind: wire.EventTaskStart, JobID: 1, TaskID: task, Time: float64(task)}
		lsn, err := wlog.AppendEvent(&ev)
		g.mu.Lock()
		durable := g.durable
		g.mu.Unlock()
		acks <- ack{lsn, durable, err}
	}
	go commit(0)
	select {
	case <-g.arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the first commit never reached its fsync")
	}
	g.mu.Lock()
	header := g.written - int(wlog.Stats().Bytes) // the segment header, written before any record
	g.mu.Unlock()
	for task := 1; task <= k; task++ {
		go commit(task)
	}
	// Every record must be written, its commit queued behind the parked
	// fsync, before the gate opens.
	for deadline := time.Now().Add(5 * time.Second); ; {
		st := wlog.Stats()
		g.mu.Lock()
		written := g.written
		g.mu.Unlock()
		if st.Appends == k+1 && written-header == int(st.Bytes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d commits staged, %d of %d record bytes written", st.Appends, written-header, st.Bytes)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case a := <-acks:
		t.Fatalf("commit of LSN %d returned (err %v) while the only fsync was parked", a.lsn, a.err)
	case <-time.After(50 * time.Millisecond):
	}
	release()

	got := make([]ack, 0, k+1)
	for i := 0; i <= k; i++ {
		select {
		case a := <-acks:
			if a.err != nil {
				t.Fatal(a.err)
			}
			got = append(got, a)
		case <-time.After(5 * time.Second):
			t.Fatal("a commit never returned after the gate opened")
		}
	}
	if syncs := wlog.Stats().Syncs; syncs > 2 {
		t.Errorf("%d commits cost %d fsyncs, want at most 2", k+1, syncs)
	}
	// Where each record ends in the segment: stamped 1, it holds the
	// segment header (entered as LSN 0, which is never assigned), then LSN
	// 1, 2, … in order.
	seg := mem.Files["wal/"+wal.SegName(1)]
	end := make(map[uint64]int)
	for off, lsn := wire.HeaderLen, uint64(0); off < len(seg); lsn++ {
		_, _, n, err := wire.DecodeFrame(seg[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
		end[lsn] = off
	}
	for _, a := range got {
		if e, ok := end[a.lsn]; !ok || e > a.durable {
			t.Errorf("commit of LSN %d returned with %d bytes covered by a returned fsync; its record ends at %d", a.lsn, a.durable, e)
		}
	}
}

// --- flusher lifecycle on a wedged log ---

// wedgeFS counts every fsync attempt and can be switched to fail them
// all, modeling a log device that dies under a running server.
type wedgeFS struct {
	wal.FS
	syncs  atomic.Int32
	broken atomic.Bool
}

func (fs *wedgeFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &wedgeFile{File: f, fs: fs}, nil
}

type wedgeFile struct {
	wal.File
	fs *wedgeFS
}

func (f *wedgeFile) Sync() error {
	f.fs.syncs.Add(1)
	if f.fs.broken.Load() {
		return fmt.Errorf("injected: log device gone")
	}
	return f.File.Sync()
}

// TestWALFlushLoopExitsWhenWedged: once the first flush failure wedges the
// log, the background flusher must stop ticking instead of hammering the
// dead device with a doomed fsync every SyncEvery.
func TestWALFlushLoopExitsWhenWedged(t *testing.T) {
	// The subtest keeps the name this case has always run under.
	t.Run("per-stream", func(t *testing.T) {
		const tick = 2 * time.Millisecond
		fs := &wedgeFS{FS: waltest.NewMemFS()}
		sv, wlog, _, err := serve.Recover("wal", servetest.CheapConfig(1),
			wal.Options{SyncEvery: tick, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		if err := sv.StartJob(commitSpec(1), nil); err != nil {
			t.Fatal(err)
		}
		if err := sv.Ingest(wire.Event{Kind: wire.EventTaskStart, JobID: 1, TaskID: 0, Time: 1}); err != nil {
			t.Fatal(err)
		}
		fs.broken.Store(true)
		// Keep the stream dirty with heartbeats until a flusher tick hits
		// the broken device and the wedge latches.
		deadline := time.Now().Add(5 * time.Second)
		for tm := 2.0; ; tm++ {
			err := sv.Ingest(wire.Event{Kind: wire.EventHeartbeat, JobID: 1, TaskID: 0,
				Time: tm, Features: []float64{tm}})
			if errors.Is(err, wal.ErrFailed) {
				break
			}
			if err != nil {
				t.Fatalf("pre-wedge ingest: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatal("flusher never wedged the log")
			}
			time.Sleep(tick)
		}
		// Drain any tick already in flight, then require silence: a
		// flusher that kept running would attempt ~50 more fsyncs.
		time.Sleep(5 * tick)
		before := fs.syncs.Load()
		time.Sleep(50 * tick)
		if after := fs.syncs.Load(); after != before {
			t.Fatalf("wedged log saw %d fsync attempts after the wedge settled; the flusher is still ticking", after-before)
		}
		wlog.Close()
	})
}
