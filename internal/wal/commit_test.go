package wal_test

// commit_test.go covers the reader of the batched cross-stream commit
// layout. Nothing writes that layout any more, so the suites run over two
// golden directories a batched writer crashed in (testdata/batched, see its
// README): recovery under the only writer, the read-only Verify
// reconciliation, and torture sweeps over the golden commit file (byte
// prefixes, bit flips, segments cut by a power loss). The two
// Sync-machinery regression tests (error joining across failing streams,
// the flusher exiting once the log wedges) live here too because their
// fixtures share the fault-injecting filesystems.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

// commitSpec builds a minimal valid job spec for tests that drive the WAL
// directly with hand-picked job IDs (stream routing is wire.Mix64(id) %
// streams, so the IDs select their streams).
func commitSpec(id uint64) wire.JobSpec {
	return wire.JobSpec{JobID: id, Schema: []string{"c"}, NumTasks: 2, TauStra: 10,
		Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: id}
}

// jobIDsCoveringStreams returns n job IDs routing to n distinct streams.
func jobIDsCoveringStreams(n int) []uint64 {
	ids := make([]uint64, 0, n)
	seen := make(map[uint64]bool, n)
	for id := uint64(1); len(ids) < n; id++ {
		if sh := wire.Mix64(id) % uint64(n); !seen[sh] {
			seen[sh] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// commitFileNames lists fs's live commit files, sorted for deterministic
// random selection.
func commitFileNames(fs *waltest.MemFS) []string {
	var names []string
	for name := range fs.Files {
		if strings.HasPrefix(filepath.Base(name), wal.CommitPrefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// --- Sync error aggregation across streams ---

// failSyncFS makes every segment file's fsync fail with an error naming
// the file, so a multi-stream Sync failure is distinguishable per stream.
// The writability probe (wal-probe.tmp) and snapshot/commit files pass
// through untouched.
type failSyncFS struct {
	wal.FS
}

func (fs *failSyncFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(name)
	if strings.HasPrefix(base, wal.SegPrefix) && strings.HasSuffix(base, wal.SegSuffix) {
		return failSyncFile{File: f, name: base}, nil
	}
	return f, nil
}

type failSyncFile struct {
	wal.File
	name string
}

func (f failSyncFile) Sync() error {
	return fmt.Errorf("injected sync failure on %s", f.name)
}

// TestWALSyncJoinsStreamErrors: when several streams' flushes fail in one
// group commit, Sync must report every stream's own failure, not just the
// first latched one — operators diagnosing a dying device need to see
// which streams it took down.
func TestWALSyncJoinsStreamErrors(t *testing.T) {
	fs := &failSyncFS{FS: waltest.NewMemFS()}
	sv, wlog, _, err := serve.Recover("wal", servetest.CheapConfig(2), wal.Options{Streams: 2, SyncEvery: time.Hour, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range jobIDsCoveringStreams(2) {
		if err := sv.StartJob(commitSpec(id), nil); err != nil {
			t.Fatal(err)
		}
	}
	err = wlog.Sync()
	if err == nil {
		t.Fatal("Sync with two failing streams returned nil")
	}
	if !errors.Is(err, wal.ErrFailed) {
		t.Errorf("Sync error is not wal.ErrFailed: %v", err)
	}
	msg := err.Error()
	for _, stream := range []string{"wal-0000-", "wal-0001-"} {
		if !strings.Contains(msg, stream) {
			t.Errorf("joined Sync error omits stream %s*: %q", stream, msg)
		}
	}
	wlog.Close() // wedged close may error; it must not panic
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
	// Per-stream is the only mode left; the subtest keeps the name this case
	// has always run under.
	t.Run("per-stream", func(t *testing.T) {
		const tick = 2 * time.Millisecond
		fs := &wedgeFS{FS: waltest.NewMemFS()}
		sv, wlog, _, err := serve.Recover("wal", servetest.CheapConfig(1),
			wal.Options{Streams: 1, SyncEvery: tick, FS: fs})
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

// --- the golden crashed-batched directories ---

// goldenSyncStride is how often the batched writer that produced the golden
// directories was synced: one commit window per 8 mutations, so the feed's
// last len(feed)%8 mutations were acknowledged but never reached the commit
// file.
const goldenSyncStride = 8

// goldenFeed decodes testdata/batched/feed.wire — the exact feed the golden
// writer was driven with — and replays it into a WAL-less server for the
// never-crashed reference state.
func goldenFeed(t testing.TB) ([]tortureMutation, []wire.JobSpec, tortureState) {
	t.Helper()
	f, err := os.Open("testdata/batched/feed.wire")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var feed []tortureMutation
	var specs []wire.JobSpec
	for wr := wire.NewReader(f); ; {
		sp, ev, err := wr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if sp != nil {
			specs = append(specs, *sp)
		}
		feed = append(feed, tortureMutation{spec: sp, ev: ev})
	}
	plain := serve.NewServer(tortureCfg(2))
	for i := range feed {
		if err := feed[i].apply(plain); err != nil {
			t.Fatal(err)
		}
	}
	return feed, specs, captureState(t, plain, specs)
}

// goldenImage loads one golden directory (testdata/batched/<name>) into a
// fresh in-memory filesystem as the WAL directory "wal". "crash" is the
// process-crash image (every written byte survives: full segments beside the
// commit file); "powerloss" cut each never-fsynced segment to nothing, so
// the synced windows live only in the commit file.
func goldenImage(t testing.TB, name string) *waltest.MemFS {
	t.Helper()
	dir := filepath.Join("testdata/batched", name)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs := waltest.NewMemFS()
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fs.Files["wal/"+e.Name()] = b
		fs.Synced["wal/"+e.Name()] = len(b)
	}
	if len(commitFileNames(fs)) == 0 {
		t.Fatalf("golden image %s holds no commit file", name)
	}
	return fs
}

// goldenLSN is the exact position each image recovers to: the process crash
// kept every mutation, the power loss only the synced windows.
func goldenLSN(name string, feedLen int) uint64 {
	if name == "powerloss" {
		return uint64(feedLen/goldenSyncStride*goldenSyncStride) + 1
	}
	return uint64(feedLen) + 1
}

var (
	goldenImages = []string{"crash", "powerloss"}
	goldenOpts   = wal.Options{SegmentBytes: 1 << 20, Streams: 4}
)

// TestWALDowngradeBatchedToPerStream recovers both golden directories with
// the per-stream writer: recovery's repair re-materializes the segments from
// the commit image and removes the commit files, the recovered position is
// exact, and the resumed run is bit-identical to the never-crashed one.
func TestWALDowngradeBatchedToPerStream(t *testing.T) {
	feed, specs, ref := goldenFeed(t)
	for _, name := range goldenImages {
		crashed := goldenImage(t, name)
		live := len(commitFileNames(crashed))
		got, rst := recoverAndResume(t, crashed, feed, specs, goldenOpts)
		if rst.CommitFiles != live {
			t.Errorf("%s: recovery reconciled %d commit files, %d were live", name, rst.CommitFiles, live)
		}
		if want := goldenLSN(name, len(feed)); rst.NextLSN != want {
			t.Fatalf("%s: recovered LSN %d, want %d (%v)", name, rst.NextLSN, want, rst)
		}
		if d := ref.diff(got); d != "" {
			t.Fatalf("%s: recovery (%v): %s", name, rst, d)
		}
		if names := commitFileNames(crashed); len(names) != 0 {
			t.Fatalf("%s: commit files %v survive recovery; repair must remove them", name, names)
		}
	}
}

// unreadableFS fails Open for one existing file, the way a transient I/O
// error would.
type unreadableFS struct {
	wal.FS
	name string
}

func (fs unreadableFS) Open(name string) (io.ReadCloser, error) {
	if filepath.Base(name) == fs.name {
		return nil, fmt.Errorf("injected: open %s: input/output error", fs.name)
	}
	return fs.FS.Open(name)
}

// TestRecoverKeepsCommitFilesWhenTargetUnreadable: a target segment that is
// in the directory but cannot be opened is an I/O error, not a
// checkpoint-retired segment — treating it as retired skips its patches, and
// repair then removes the commit files holding the only durable copy of its
// acknowledged bytes. Recover must fail with the commit files intact, and
// succeed in full once the fault clears.
func TestRecoverKeepsCommitFilesWhenTargetUnreadable(t *testing.T) {
	feed, _, _ := goldenFeed(t)
	crashed := goldenImage(t, "powerloss")
	seg := filepath.Base(segFileNames(crashed)[0])
	live := commitFileNames(crashed)
	opts := goldenOpts
	opts.FS = unreadableFS{FS: crashed, name: seg}
	if _, wlog, rst, err := serve.Recover("wal", tortureCfg(2), opts); err == nil {
		wlog.Close()
		t.Fatalf("recovery over an unreadable commit target %s succeeded (%v)", seg, rst)
	}
	if got := commitFileNames(crashed); !reflect.DeepEqual(got, live) {
		t.Fatalf("failed recovery left commit files %v, had %v — acknowledged bytes discarded", got, live)
	}
	opts.FS = crashed
	_, wlog, rst, err := serve.Recover("wal", tortureCfg(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	if want := goldenLSN("powerloss", len(feed)); rst.NextLSN != want {
		t.Fatalf("recovery after the fault cleared reached LSN %d, want %d (%v)", rst.NextLSN, want, rst)
	}
}

// --- read-only verification ---

// TestVerifyWALBatchedReadOnly: -wal-verify on the golden directories — in
// the power-loss one every durable byte lives only in the commit file — must
// report the exact recoverable LSN through a read-only reconciliation
// overlay (no write, no repair) and agree with what Recover then rebuilds.
func TestVerifyWALBatchedReadOnly(t *testing.T) {
	feed, _, _ := goldenFeed(t)
	for _, name := range goldenImages {
		crashed := goldenImage(t, name)
		snapshot := make(map[string][]byte, len(crashed.Files))
		for file, b := range crashed.Files {
			snapshot[file] = append([]byte(nil), b...)
		}
		rep, err := wal.Verify("wal", wal.Options{Streams: 4, FS: crashed})
		if err != nil {
			t.Fatalf("%s: verify: %v", name, err)
		}
		if rep.CommitFiles == 0 || rep.CommitRecords == 0 {
			t.Fatalf("%s: verify saw %d commit files, %d batch records; the directory holds both", name, rep.CommitFiles, rep.CommitRecords)
		}
		if want := goldenLSN(name, len(feed)); rep.NextLSN != want {
			t.Fatalf("%s: verify reports recoverable LSN %d, want %d", name, rep.NextLSN, want)
		}
		if !strings.Contains(rep.String(), "commit files:") {
			t.Errorf("%s: report omits the commit-file line:\n%s", name, rep.String())
		}
		if len(snapshot) != len(crashed.Files) {
			t.Fatalf("%s: verify changed the file set: %d files, was %d", name, len(crashed.Files), len(snapshot))
		}
		for file, want := range snapshot {
			if got, ok := crashed.Files[file]; !ok || !bytes.Equal(got, want) {
				t.Fatalf("%s: verify modified %s", name, file)
			}
		}
		if len(crashed.Journal) != 0 {
			t.Fatalf("%s: verify wrote to the filesystem: %d ops journaled", name, len(crashed.Journal))
		}

		// The report must match what a real recovery finds.
		opts := goldenOpts
		opts.FS = crashed
		_, wlog, rst, err := serve.Recover("wal", tortureCfg(4), opts)
		if err != nil {
			t.Fatalf("%s: recover after verify: %v (%v)", name, err, rst)
		}
		wlog.Close()
		if rst.NextLSN != rep.NextLSN || rst.CommitFiles != rep.CommitFiles {
			t.Errorf("%s: recovery found LSN %d / %d commit files, verify predicted %d / %d",
				name, rst.NextLSN, rst.CommitFiles, rep.NextLSN, rep.CommitFiles)
		}
	}
}

// --- torture sweeps over the golden commit file ---

// commitFramePrefix walks a commit file frame by frame and returns, for each
// complete frame, the byte offset it ends at and how many segment records
// the file has staged up to there — the most a byte prefix ending at or
// after that offset can make recoverable when the segments hold nothing.
func commitFramePrefix(t testing.TB, commit []byte) (ends []int, records []int) {
	t.Helper()
	off, recs := wire.HeaderLen, 0
	for off < len(commit) {
		kind, payload, n, err := wire.DecodeFrame(commit[off:])
		if err != nil || kind != wire.FrameCommitBatch {
			t.Fatalf("golden commit file: frame at %d: kind %d, %v", off, kind, err)
		}
		cb, err := wire.DecodeCommitBatchPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		data := cb.Data
		if cb.Off == 0 {
			data = data[wire.HeaderLen:] // the extent opens its segment
		}
		for len(data) > 0 {
			k, _, m, err := wire.DecodeFrame(data)
			if err != nil {
				t.Fatalf("golden commit file: extent at %d holds a partial frame: %v", off, err)
			}
			if k == wire.FrameRecord {
				recs++
			}
			data = data[m:]
		}
		off += n
		ends = append(ends, off)
		records = append(records, recs)
	}
	return ends, records
}

// TestWALTortureBatchedCommitPrefixes recovers the power-loss directory with
// its commit file cut at sampled byte prefixes — every frame boundary, the
// bytes either side, and a stride in between. The segments hold nothing, so
// the recovered LSN can never pass the records the surviving prefix staged,
// never shrinks as the prefix grows, and the resumed run stays
// bit-identical.
func TestWALTortureBatchedCommitPrefixes(t *testing.T) {
	feed, specs, ref := goldenFeed(t)
	base := goldenImage(t, "powerloss")
	name := commitFileNames(base)[0]
	commit := base.Files[name]
	ends, records := commitFramePrefix(t, commit)

	stride := len(commit)/400 + 1
	if testing.Short() || raceEnabled {
		stride = len(commit)/60 + 1
	}
	cuts := map[int]bool{0: true, len(commit): true}
	for k := 0; k < len(commit); k += stride {
		cuts[k] = true
	}
	for _, e := range ends {
		cuts[e-1], cuts[e] = true, true
		if e+1 <= len(commit) {
			cuts[e+1] = true
		}
	}
	sorted := make([]int, 0, len(cuts))
	for k := range cuts {
		sorted = append(sorted, k)
	}
	sort.Ints(sorted)

	prev := uint64(1)
	for _, k := range sorted {
		crashed := goldenImage(t, "powerloss")
		crashed.Files[name] = crashed.Files[name][:k]
		crashed.Synced[name] = k
		got, rst := recoverAndResume(t, crashed, feed, specs, goldenOpts)
		staged := 0
		if i := sort.SearchInts(ends, k+1); i > 0 { // complete frames: ends[j] <= k
			staged = records[i-1]
		}
		if rst.NextLSN-1 > uint64(staged) {
			t.Fatalf("commit prefix %dB: recovered LSN %d, but the prefix staged only %d records (%v)",
				k, rst.NextLSN, staged, rst)
		}
		if rst.NextLSN < prev {
			t.Fatalf("commit prefix %dB: recovered LSN %d, a shorter prefix reached %d (%v)", k, rst.NextLSN, prev, rst)
		}
		prev = rst.NextLSN
		if d := ref.diff(got); d != "" {
			t.Fatalf("commit prefix %dB (recovery %v): %s", k, rst, d)
		}
	}
	if want := goldenLSN("powerloss", len(feed)); prev != want {
		t.Fatalf("whole commit file recovered LSN %d, want %d", prev, want)
	}
}

// TestWALTortureBatchedPowerLoss is the power-loss model over the golden
// process-crash directory: the batched writer never fsynced a segment, so a
// power loss may keep any prefix of each — while the commit file, fsynced at
// every window, survives whole. Only the unsynced tail may be lost, no
// phantom record may appear, and the re-fed run stays bit-identical.
func TestWALTortureBatchedPowerLoss(t *testing.T) {
	feed, specs, ref := goldenFeed(t)
	synced := goldenLSN("powerloss", len(feed))
	rng := rand.New(rand.NewSource(139))
	points := 100
	if testing.Short() || raceEnabled {
		points = 20
	}
	for i := 0; i < points; i++ {
		crashed := goldenImage(t, "crash")
		cuts := ""
		for _, file := range segFileNames(crashed) {
			k := rng.Intn(len(crashed.Files[file]) + 1)
			crashed.Files[file] = crashed.Files[file][:k]
			crashed.Synced[file] = k
			cuts += fmt.Sprintf(" %s@%d", filepath.Base(file), k)
		}
		got, rst := recoverAndResume(t, crashed, feed, specs, goldenOpts)
		if rst.NextLSN < synced {
			t.Fatalf("power loss (%s): recovered LSN %d < %d — a completed commit window was lost (%v)",
				cuts, rst.NextLSN, synced, rst)
		}
		if rst.NextLSN > uint64(len(feed))+1 {
			t.Fatalf("power loss (%s): recovered LSN %d beyond the %d-mutation feed (%v)", cuts, rst.NextLSN, len(feed), rst)
		}
		if d := ref.diff(got); d != "" {
			t.Fatalf("power loss (%s) (recovery %v): %s", cuts, rst, d)
		}
	}
}

// segFileNames lists fs's per-shard segment files, sorted for deterministic
// random selection.
func segFileNames(fs *waltest.MemFS) []string {
	var names []string
	for name := range fs.Files {
		if _, _, ok := wal.ParseShardSeg(filepath.Base(name)); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// TestWALTortureBatchedBitFlips corrupts single bits of the golden
// directories. A flip in a batch record fails its CRC and ends the trustable
// patch sequence — reconciliation must fall back to the durable prefix,
// never patch garbage. A flip in a segment file inside a commit-covered
// extent is *healed*: reconciliation rewrites the extent from the commit
// image. Either way the re-fed run must converge bit-identically.
func TestWALTortureBatchedBitFlips(t *testing.T) {
	feed, specs, ref := goldenFeed(t)
	flips := 80
	if testing.Short() || raceEnabled {
		flips = 20
	}
	rng := rand.New(rand.NewSource(149))
	for _, tc := range []struct {
		image string
		files func(*waltest.MemFS) []string
	}{
		// Every durable byte lives only in the commit file being corrupted.
		{"powerloss", commitFileNames},
		// Full segments beside it: a stopped patch sequence costs nothing.
		{"crash", commitFileNames},
		// Commit extents overwrite the flipped byte wherever a window staged
		// it; a flip in the unstaged tail truncates there like any torn frame.
		{"crash", segFileNames},
	} {
		for i := 0; i < flips; i++ {
			crashed := goldenImage(t, tc.image)
			names := tc.files(crashed)
			name := names[rng.Intn(len(names))]
			b := crashed.Files[name]
			pos := rng.Intn(len(b))
			b[pos] ^= 1 << uint(rng.Intn(8))
			got, rst := recoverAndResume(t, crashed, feed, specs, goldenOpts)
			if rst.NextLSN > uint64(len(feed))+1 {
				t.Fatalf("%s: flip in %s at %d: recovered LSN %d beyond the %d-mutation feed", tc.image, name, pos, rst.NextLSN, len(feed))
			}
			if d := ref.diff(got); d != "" {
				t.Fatalf("%s: flip in %s at %d (recovery %v): %s", tc.image, name, pos, rst, d)
			}
		}
	}
}
