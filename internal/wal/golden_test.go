package wal_test

// golden_test.go pins what a recovery reads from a directory this build
// wrote: testdata/log holds the log and bases of one seeded op sequence
// (request bodies, single mutations, an early FinishJob, a DropJob, two
// checkpoints, and a torn tail), and testdata/log.golden.json what
// recovering and verifying it yields. A format change that reads old directories
// differently fails here; `go test ./internal/wal -run TestRecoverLogDirectory
// -update` rewrites both from writeLogDir.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/servehttp"
	"repro/internal/wal"
)

var update = flag.Bool("update", false, "rewrite testdata/log and testdata/log.golden.json")

// logGolden is what Recover and Verify report for a directory, and every
// recovered job's verdicts and report.
type logGolden struct {
	Recovery struct {
		SnapshotLSN, NextLSN       uint64
		Segments, Applied, Skipped int
		TornTail                   bool
	}
	Verify struct {
		SnapshotLSN, NextLSN uint64
		Segments, Records    int
		TornTail             bool
	}
	Jobs []logJob
}

// logJob is one recovered job's verdicts and report.
type logJob struct {
	ID       uint64
	Verdicts []serve.TaskVerdict
	Report   servetest.ReportCore
}

// writeLogDir runs the seeded op sequence behind testdata/log into the
// empty directory dir: the first third of a 5-job feed as 32-frame request
// bodies; job 1 finished early by FinishJob and dropped (its later events
// are left out); a checkpoint; the second third as single mutations; a
// second checkpoint, which keeps the first base and the log above its floor
// as the fallback; the rest as bodies again. The log is closed, then its newest segment loses
// its last 5 bytes — a torn tail inside the final record.
func writeLogDir(t testing.TB, dir string) {
	feed, specs := tortureFeed(t, 5, 211)
	sv, wlog, _, err := serve.Recover(dir, tortureCfg(3), wal.Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	h := servehttp.NewHandler(sv)
	dropped := specs[0].JobID
	var last float64 // the dropped job's latest event time
	post := func(part []tortureMutation) {
		var keep []tortureMutation
		for _, mu := range part {
			if mu.ev == nil || mu.ev.JobID != dropped {
				keep = append(keep, mu)
			}
		}
		bodies, sizes := feedBodies(t, keep, 32)
		for i := range bodies {
			mustPost(t, h, bodies[i], sizes[i])
		}
	}
	third := len(feed) / 3
	for _, mu := range feed[:third] {
		if mu.ev != nil && mu.ev.JobID == dropped {
			last = mu.ev.Time
		}
	}
	post(feed[:third])
	if err := servetest.FinishJob(sv, dropped, last); err != nil {
		t.Fatal(err)
	}
	if err := sv.DropJob(dropped); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sv.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	for _, mu := range feed[third : 2*third] {
		if mu.ev != nil && mu.ev.JobID == dropped {
			continue
		}
		if err := mu.apply(sv); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := sv.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	post(feed[2*third:])
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.ListSegs(wal.OSFS, dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written (%v)", err)
	}
	newest := filepath.Join(dir, segs[len(segs)-1].Name)
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}
}

// readLogDir verifies, then recovers, dir and reports what both saw.
func readLogDir(t testing.TB, dir string) logGolden {
	var got logGolden
	rep, err := wal.Verify(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got.Verify.SnapshotLSN, got.Verify.NextLSN = rep.SnapshotLSN, rep.NextLSN
	got.Verify.Segments, got.Verify.Records, got.Verify.TornTail = rep.Segments, rep.Records, rep.TornTail
	sv, wlog, rst, err := serve.Recover(dir, tortureCfg(3), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	got.Recovery.SnapshotLSN, got.Recovery.NextLSN = rst.SnapshotLSN, rst.NextLSN
	got.Recovery.Segments, got.Recovery.Applied = rst.SegmentsScanned, rst.RecordsApplied
	got.Recovery.Skipped, got.Recovery.TornTail = rst.RecordsSkipped, rst.TornTail
	for _, id := range sv.JobIDs() {
		r, err := sv.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := sv.Query(id, servetest.AllTaskIDs(r.Spec.NumTasks))
		if err != nil {
			t.Fatal(err)
		}
		got.Jobs = append(got.Jobs, logJob{id, vs, servetest.CoreOf(r)})
	}
	return got
}

// TestRecoverLogDirectoryUnchanged: testdata/log recovers, and verifies,
// to exactly the counts, verdicts and reports in testdata/log.golden.json.
func TestRecoverLogDirectoryUnchanged(t *testing.T) {
	src := filepath.Join("testdata", "log")
	golden := filepath.Join("testdata", "log.golden.json")
	if *update {
		if err := os.RemoveAll(src); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(src, 0o755); err != nil {
			t.Fatal(err)
		}
		writeLogDir(t, src)
		b, err := json.MarshalIndent(readLogDir(t, copyDir(t, src)), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(readLogDir(t, copyDir(t, src)), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(got, '\n')) != string(want) {
		t.Fatalf("recovery of testdata/log diverges from the golden:\n%s", got)
	}
	var g logGolden
	if err := json.Unmarshal(want, &g); err != nil {
		t.Fatal(err)
	}
	if !g.Recovery.TornTail || g.Recovery.Applied == 0 || g.Recovery.Skipped == 0 || g.Recovery.SnapshotLSN == 0 || len(g.Jobs) != 4 {
		t.Errorf("golden no longer covers a torn tail, skipped and applied records, a base and one dropped job of five: %+v", g.Recovery)
	}
}
