package wal_test

// lsn_test.go pins the log's record format from both ends: a log written by
// replaying a dump is that dump's frames, and so is the base a checkpoint
// compacts it into (TestLogIsItsDump), and the LSN a
// record is read back at — its segment's stamp plus its ordinal — is the LSN
// the write call returned for it, across rotation, torn tails, header-only
// segments and the power-loss jump (TestDerivedLSNsMatchIssued); the
// counter that issues them reads monotone while stagers run
// (TestLSNCounterUnderConcurrency).

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/servehttp"
	"repro/internal/simulator"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

// TestLogIsItsDump replays a tracegen-style dump into a server recovered on
// an empty WAL directory. With each segment's stream header and segment
// header stripped, the log is the dump: its event frames byte for byte, and
// its spec frames as StartJob registered them (Checkpoints, WarmFrac,
// StragglerQuantile and RefitMode defaulted). A checkpoint's base is the same
// frames behind one stream header, and replaying it through servehttp.Replay
// rebuilds the never-crashed server's reports and verdicts.
func TestLogIsItsDump(t *testing.T) {
	specs, streams := walWorkload(t, 3, 151)
	// A dump may leave the monitoring parameters to StartJob's defaults.
	specs[1].Checkpoints, specs[1].WarmFrac, specs[1].StragglerQuantile = 0, 0, 0
	var dump bytes.Buffer
	if err := wire.WriteDump(&dump, specs, serve.MergeStreams(streams...)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := servetest.CheapConfig(2)
	cfg.RefitMode = wire.RefitWarm
	sv, wlog, _, err := serve.Recover(dir, cfg, wal.Options{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	st, err := servehttp.Replay(sv, bytes.NewReader(dump.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Specs != len(specs) || st.Shed != 0 {
		t.Fatalf("replay: %+v", st)
	}

	var log []byte
	segs, err := wal.ListSegs(wal.OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("%d segments: the dump should span a rotation", len(segs))
	}
	for _, seg := range segs {
		b, err := os.ReadFile(filepath.Join(dir, seg.Name))
		if err != nil {
			t.Fatal(err)
		}
		off, err := wire.DecodeHeader(b)
		if err != nil {
			t.Fatal(err)
		}
		kind, _, n, err := wire.DecodeFrame(b[off:])
		if err != nil || kind != wire.FrameSegHeader {
			t.Fatalf("%s opens with frame kind %d (%v), not its segment header", seg.Name, kind, err)
		}
		log = append(log, b[off+n:]...)
	}

	base, _, err := sv.CheckpointWAL()
	if err != nil {
		t.Fatal(err)
	}
	ref := captureState(t, sv, specs)
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	var want []byte
	def := simulator.DefaultConfig()
	for _, sp := range specs {
		if sp.Checkpoints == 0 {
			sp.Checkpoints = def.Checkpoints
		}
		if sp.WarmFrac == 0 {
			sp.WarmFrac = def.WarmFrac
		}
		if sp.StragglerQuantile == 0 {
			sp.StragglerQuantile = def.StragglerQuantile
		}
		sp.RefitMode = cfg.RefitMode
		if want, err = wire.EncodeSpec(want, sp); err != nil {
			t.Fatal(err)
		}
	}
	events := 0
	for rest := dump.Bytes()[wire.HeaderLen:]; len(rest) > 0; {
		kind, _, n, err := wire.DecodeFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		if kind == wire.FrameEvent {
			want = append(want, rest[:n]...)
			events++
		}
		rest = rest[n:]
	}
	if st.Events != events {
		t.Fatalf("replay ingested %d of the dump's %d events", st.Events, events)
	}
	if !bytes.Equal(log, want) {
		at := 0
		for at < min(len(log), len(want)) && log[at] == want[at] {
			at++
		}
		t.Fatalf("the log (%d bytes past its segment headers) differs from the defaulted dump (%d bytes) at byte %d",
			len(log), len(want), at)
	}

	b, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, append(wire.AppendHeader(nil), want...)) {
		t.Fatalf("the base %s (%d bytes) is not the log's frames behind a stream header (%d bytes)",
			filepath.Base(base), len(b), wire.HeaderLen+len(want))
	}
	restored := serve.NewServer(servetest.CheapConfig(3))
	if _, err := servehttp.Replay(restored, bytes.NewReader(b), 0); err != nil {
		t.Fatal(err)
	}
	if d := ref.diff(captureState(t, restored, specs)); d != "" {
		t.Fatalf("the base replayed through servehttp.Replay: %s", d)
	}
}

// ledger maps each LSN a write call returned to the frame it was handed.
type ledger map[uint64][]byte

// truncate forgets every LSN at or above lsn: records a crash took.
func (l ledger) truncate(lsn uint64) {
	for k := range l {
		if k >= lsn {
			delete(l, k)
		}
	}
}

// issue drives one round of every write call against sv and its log, job
// IDs from base on, recording each returned LSN's frame: the Server's
// StartJob, IngestBatch, Ingest, FinishJob and DropJob (whose LSNs, with one
// feeder, are NextLSN as each call begins), then the log's own AppendSpec,
// AppendEvent, StageSpec, StageEvent and StageDrop.
func (l ledger) issue(t *testing.T, sv *serve.Server, wlog *wal.WAL, base uint64) {
	t.Helper()
	spec := func(id uint64) wire.JobSpec {
		return wire.JobSpec{JobID: id, Schema: []string{"c"}, NumTasks: 3, TauStra: 10, StragglerQuantile: 0.9,
			Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: id, RefitMode: wire.RefitScratch}
	}
	specFrame := func(sp wire.JobSpec) []byte {
		b, err := wire.EncodeSpec(nil, sp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	eventFrame := func(ev wire.Event) []byte {
		b, err := wire.EncodeEvent(nil, ev)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dropFrame := func(id uint64) []byte {
		return wire.AppendFrame(nil, wire.FrameDrop, binary.LittleEndian.AppendUint64(nil, id))
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	record := func(lsn uint64, err error, frame []byte) {
		t.Helper()
		must(err)
		l[lsn] = frame
	}

	// Through the Server.
	sp := spec(base)
	lsn := wlog.NextLSN()
	record(lsn, sv.StartJob(sp, nil), specFrame(sp))
	batch := []wire.Event{
		{Kind: wire.EventTaskStart, JobID: base, TaskID: 0, Time: 1},
		{Kind: wire.EventTaskStart, JobID: base, TaskID: 1, Time: 2},
		{Kind: wire.EventTaskFinish, JobID: base, TaskID: 0, Time: 5, Latency: 4},
	}
	lsn = wlog.NextLSN()
	must(sv.IngestBatch(batch))
	for i, ev := range batch {
		l[lsn+uint64(i)] = eventFrame(ev)
	}
	ev := wire.Event{Kind: wire.EventTaskStart, JobID: base, TaskID: 2, Time: 6}
	lsn = wlog.NextLSN()
	record(lsn, sv.Ingest(ev), eventFrame(ev))
	lsn = wlog.NextLSN()
	record(lsn, sv.FinishJob(base, 9), eventFrame(wire.Event{Kind: wire.EventJobFinish, JobID: base, Time: 9}))
	lsn = wlog.NextLSN()
	record(lsn, sv.DropJob(base), dropFrame(base))

	// Straight into the log: a job the server never saw, whole, by the
	// append calls and then by the stage calls.
	sp = spec(base + 1)
	lsn, err := wlog.AppendSpec(&sp)
	record(lsn, err, specFrame(sp))
	ev = wire.Event{Kind: wire.EventTaskStart, JobID: base + 1, TaskID: 0, Time: 1}
	lsn, err = wlog.AppendEvent(&ev)
	record(lsn, err, eventFrame(ev))
	fin := wire.Event{Kind: wire.EventJobFinish, JobID: base + 1, Time: 3}
	lsn, err = wlog.AppendEvent(&fin)
	record(lsn, err, eventFrame(fin))
	sp = spec(base + 2)
	lsn, err = wlog.StageSpec(&sp)
	record(lsn, err, specFrame(sp))
	ev = wire.Event{Kind: wire.EventTaskStart, JobID: base + 2, TaskID: 1, Time: 2}
	lsn, err = wlog.StageEvent(&ev)
	record(lsn, err, eventFrame(ev))
	fin = wire.Event{Kind: wire.EventJobFinish, JobID: base + 2, Time: 4}
	lsn, err = wlog.StageEvent(&fin)
	record(lsn, err, eventFrame(fin))
	lsn, err = wlog.StageDrop(base + 2)
	record(lsn, err, dropFrame(base+2))
	lsn, err = wlog.StageDrop(base + 1)
	record(lsn, err, dropFrame(base+1))
	must(wlog.CommitAll())
}

// check scans fs's log above floor and requires the visitor to report
// exactly the ledger's LSNs from floor up, each with the frame the write
// call that returned it was handed, and the scan to end past the newest.
func (l ledger) check(t *testing.T, fs wal.FS, floor uint64) {
	t.Helper()
	var rst wal.RecoveryStats
	seen := 0
	scan, err := wal.ScanDir(fs, "wal", floor, false, &rst, func(lsn uint64, kind wire.FrameKind, payload []byte) error {
		if got, want := wire.AppendFrame(nil, kind, payload), l[lsn]; !bytes.Equal(got, want) {
			t.Errorf("LSN %d reads back as %x; the write call that returned it logged %x", lsn, got, want)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var newest uint64
	issued := 0
	for lsn := range l {
		if lsn >= floor {
			issued++
			newest = max(newest, lsn)
		}
	}
	if seen != issued || scan.NextLSN() != newest+1 {
		t.Fatalf("scan above %d reported %d records up to next LSN %d; %d were issued, the newest %d",
			floor, seen, scan.NextLSN(), issued, newest)
	}
}

// crashImage copies fs as a crash would leave it: every written byte, or
// with powerLoss only the synced ones.
func crashImage(fs *waltest.MemFS, powerLoss bool) *waltest.MemFS {
	img := waltest.NewMemFS()
	for name, b := range fs.Files {
		if powerLoss {
			b = b[:fs.Synced[name]]
		}
		img.Files[name] = append([]byte(nil), b...)
		img.Synced[name] = len(b)
	}
	return img
}

// newestSeg returns the path of fs's newest segment and its stamp.
func newestSeg(t *testing.T, fs *waltest.MemFS) (string, uint64) {
	t.Helper()
	segs, err := wal.ListSegs(fs, "wal")
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	s := segs[len(segs)-1]
	return "wal/" + s.Name, s.Seq
}

// TestDerivedLSNsMatchIssued: every LSN a write call returns — the Server's
// mutations and the log's Append*/Stage* calls alike — is the LSN recovery
// later reads that record back at, through tiny segments (rotation every
// few records), a torn-tail recovery with appends after it, a header-only
// segment, and a snapshot floor above the log's end (a power loss that took
// a tail the snapshot covers).
func TestDerivedLSNsMatchIssued(t *testing.T) {
	l := ledger{}
	cfg := servetest.CheapConfig(2)
	opts := func(fs wal.FS, segBytes int64) wal.Options {
		return wal.Options{SegmentBytes: segBytes, SyncEvery: time.Hour, FS: fs}
	}
	reopen := func(fs wal.FS, segBytes int64) (*serve.Server, *wal.WAL, wal.RecoveryStats) {
		t.Helper()
		sv, wlog, rst, err := serve.Recover("wal", cfg, opts(fs, segBytes))
		if err != nil {
			t.Fatal(err)
		}
		return sv, wlog, rst
	}

	// Rotation: a 256-byte threshold puts a few records in each segment.
	fs := waltest.NewMemFS()
	sv, wlog, _ := reopen(fs, 256)
	for base := uint64(10); base < 40; base += 10 {
		l.issue(t, sv, wlog, base)
	}
	img := crashImage(fs, false)
	wlog.Close()
	if segs, _ := wal.ListSegs(img, "wal"); len(segs) < 5 {
		t.Fatalf("%d segments: the rotation case needs several", len(segs))
	}
	l.check(t, img, 0)

	// A torn tail: the newest segment loses its last 3 bytes, recovery cuts
	// the torn record, and the records appended after it take its LSN on.
	name, _ := newestSeg(t, img)
	img.Files[name] = img.Files[name][:len(img.Files[name])-3]
	sv, wlog, rst := reopen(img, 256)
	if !rst.TornTail || rst.NextLSN != uint64(len(l)) {
		t.Fatalf("torn-tail recovery: %v, %d records issued", rst, len(l))
	}
	l.truncate(rst.NextLSN)
	l.issue(t, sv, wlog, 40)
	img2 := crashImage(img, false)
	wlog.Close()
	l.check(t, img2, 0)

	// A header-only segment: a crash after a rotation wrote the successor's
	// header but before its first record.
	name, stamp := newestSeg(t, img2)
	img2.Files[name] = img2.Files[name][:wire.HeaderLen+5+16+4]
	l.truncate(stamp)
	l.check(t, img2, 0)
	sv, wlog, rst = reopen(img2, 256)
	if rst.NextLSN != stamp {
		t.Fatalf("header-only recovery resumed at LSN %d, the segment is stamped %d", rst.NextLSN, stamp)
	}
	l.issue(t, sv, wlog, 50)
	img3 := crashImage(img2, false)
	wlog.Close()
	l.check(t, img3, 0)

	// The power-loss jump: no rotation, a checkpoint, more records, and a
	// power loss that keeps the synced snapshot but not the log tail under
	// it. The resumed log's first segment is stamped at the snapshot floor,
	// past the log's end.
	sv, wlog, _ = reopen(img3, 1<<20)
	l.issue(t, sv, wlog, 60)
	if _, _, err := sv.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	l.issue(t, sv, wlog, 70)
	img4 := crashImage(img3, true)
	wlog.Close()
	rep, err := wal.Verify("wal", wal.Options{FS: img4})
	if err != nil {
		t.Fatal(err)
	}
	floor := rep.SnapshotLSN
	if floor == 0 || rep.LastLSN+1 >= floor || rep.NextLSN != floor {
		t.Fatalf("no power-loss jump to test: %+v", rep)
	}
	l.truncate(floor)
	sv, wlog, rst = reopen(img4, 1<<20)
	if rst.NextLSN != floor {
		t.Fatalf("recovery above the jump resumed at LSN %d, the floor is %d", rst.NextLSN, floor)
	}
	l.issue(t, sv, wlog, 80)
	img5 := crashImage(img4, false)
	wlog.Close()
	if _, stamp := newestSeg(t, img5); stamp != floor {
		t.Fatalf("the resumed log's segment is stamped %d, not at the floor %d", stamp, floor)
	}
	l.check(t, img5, floor)
}

// TestLSNCounterUnderConcurrency: stagers of every record kind run beside
// rotation, checkpoints and the group-commit flusher while readers watch
// the LSN counter through NextLSN, Stats().NextLSN and CommitAll. Each
// reader sees a monotone sequence that never passes the records staged,
// and after Close the log's NextLSN is the one recovery lands on. Meant
// for -race.
func TestLSNCounterUnderConcurrency(t *testing.T) {
	fs := waltest.NewMemFS()
	opts := wal.Options{SegmentBytes: 4 << 10, SyncEvery: time.Millisecond, FS: fs}
	cfg := servetest.CheapConfig(2)
	_, wlog, _, err := serve.Recover("wal", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	specs, streams := walWorkload(t, 4, 157)
	total := 0
	for i := range specs {
		total += 2 + len(streams[i]) // spec, events, drop
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(specs))
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stage := func(lsn uint64, err error) bool {
				if err == nil && i%2 == 0 {
					err = wlog.Commit(lsn)
				}
				if err != nil {
					errs <- err
				}
				return err == nil
			}
			if !stage(wlog.StageSpec(&specs[i])) {
				return
			}
			for k := range streams[i] {
				if !stage(wlog.StageEvent(&streams[i][k])) {
					return
				}
			}
			stage(wlog.StageDrop(specs[i].JobID))
		}(i)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for name, read := range map[string]func() (uint64, error){
		"NextLSN": func() (uint64, error) { return wlog.NextLSN(), nil },
		"Stats":   func() (uint64, error) { return wlog.Stats().NextLSN, nil },
		"CommitAll": func() (uint64, error) {
			err := wlog.CommitAll()
			return wlog.NextLSN(), err
		},
		"Checkpoint": func() (uint64, error) {
			_, _, err := wlog.Checkpoint()
			return wlog.NextLSN(), err
		},
	} {
		readers.Add(1)
		go func(name string, read func() (uint64, error)) {
			defer readers.Done()
			var last uint64
			for {
				lsn, err := read()
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if lsn < last || lsn > uint64(total)+1 {
					t.Errorf("%s read %d after %d (%d records in all)", name, lsn, last, total)
					return
				}
				last = lsn
				select {
				case <-stop:
					return
				default:
				}
			}
		}(name, read)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := wlog.NextLSN(); got != uint64(total)+1 {
		t.Fatalf("NextLSN %d after %d records", got, total)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
	_, wlog2, rst, err := serve.Recover("wal", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer wlog2.Close()
	if rst.NextLSN != wlog.NextLSN() || wlog2.NextLSN() != rst.NextLSN {
		t.Fatalf("closed log's NextLSN %d, recovered %d, reopened %d", wlog.NextLSN(), rst.NextLSN, wlog2.NextLSN())
	}
}
