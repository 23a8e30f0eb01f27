package main

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestSetupServerWALValidation is the -wal flag contract: bad directories
// produce clean, descriptive errors — never a panic, never a half-opened
// log — and a good directory round-trips a recoverable server.
func TestSetupServerWALValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		dir     func(t *testing.T) string
		wantErr string
	}{
		{
			name:    "missing dir",
			dir:     func(t *testing.T) string { return filepath.Join(t.TempDir(), "nope") },
			wantErr: "create it first",
		},
		{
			name: "dir is a file",
			dir: func(t *testing.T) string {
				p := filepath.Join(t.TempDir(), "file")
				if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
					t.Fatal(err)
				}
				return p
			},
			wantErr: "not a directory",
		},
		{
			name: "read-only dir",
			dir: func(t *testing.T) string {
				p := filepath.Join(t.TempDir(), "ro")
				if err := os.Mkdir(p, 0o555); err != nil {
					t.Fatal(err)
				}
				return p
			},
			wantErr: "recovery",
		},
		{
			name: "multi-node layout",
			dir: func(t *testing.T) string {
				p := t.TempDir()
				if err := os.Mkdir(filepath.Join(p, "node-000"), 0o755); err != nil {
					t.Fatal(err)
				}
				return p
			},
			wantErr: "node-000 is a per-node directory",
		},
		{
			name: "writable dir",
			dir:  func(t *testing.T) string { return t.TempDir() },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "read-only dir" && (runtime.GOOS == "windows" || os.Geteuid() == 0) {
				t.Skip("permission bits not enforced for this user/platform")
			}
			sv, wlog, _, err := setupServer(tc.dir(t), serve.Config{Shards: 2}, wal.Options{SyncEvery: time.Millisecond})
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("setupServer succeeded, want error containing %q", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if sv == nil || wlog == nil {
				t.Fatal("setupServer returned no server/WAL for a valid dir")
			}
			if sv.WAL() != wlog {
				t.Error("WAL not attached to the server")
			}
			wlog.Close()
		})
	}
}

// TestRunWALVerify is the -wal-verify contract: over a directory a crashed
// server left behind — rotated segments, a checkpoint snapshot, and a torn
// tail appended to the newest segment — the offline verifier prints the
// log's counts and the recoverable LSN, agrees with what Recover then
// actually recovers, and never modifies the directory. Bad paths, and a
// directory of the retired multi-stream layout, produce clean errors.
func TestRunWALVerify(t *testing.T) {
	dir := t.TempDir()
	sv, wlog, _, err := serve.Recover(dir, serve.DefaultConfig(), wal.Options{
		SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	mutations := 0
	for job := uint64(1); job <= 6; job++ {
		spec := wire.JobSpec{JobID: job, Schema: []string{"cpu"}, NumTasks: 4,
			TauStra: 10, Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: job}
		if err := sv.StartJob(spec, nil); err != nil {
			t.Fatal(err)
		}
		mutations++
		for tid := 0; tid < 4; tid++ {
			if err := sv.Ingest(wire.Event{Kind: wire.EventTaskStart, JobID: job,
				TaskID: tid, Time: float64(tid)}); err != nil {
				t.Fatal(err)
			}
			mutations++
		}
	}
	if _, _, err := sv.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	if err := sv.Ingest(wire.Event{Kind: wire.EventTaskFinish, JobID: 1, TaskID: 0,
		Time: 50, Latency: 50}); err != nil {
		t.Fatal(err)
	}
	mutations++
	wlog.Close()
	// A torn tail: half a frame of garbage on the newest segment, as a
	// crash mid-write leaves it.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), wal.SegPrefix) && strings.HasSuffix(e.Name(), wal.SegSuffix) {
			victim = filepath.Join(dir, e.Name())
		}
	}
	if victim == "" {
		t.Fatal("no segment files written")
	}
	f, err := os.OpenFile(victim, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x08, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out strings.Builder
	if err := runWALVerify(dir, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	wantLSN := mutations + 1
	for _, want := range []string{
		"snapshot: snap-",
		"log: ",
		"torn tail",
		"recoverable LSN: " + itoa(wantLSN),
	} {
		if !strings.Contains(got, want) {
			t.Errorf("verify output missing %q:\n%s", want, got)
		}
	}

	// The verifier's recoverable LSN is a promise Recover must keep.
	sv2, wal2, rst, err := serve.Recover(dir, serve.DefaultConfig(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	_ = sv2
	if int(rst.NextLSN) != wantLSN {
		t.Errorf("Recover reached LSN %d, verifier promised %d", rst.NextLSN, wantLSN)
	}

	// Error paths: missing dir, not a dir.
	if err := runWALVerify(filepath.Join(dir, "absent"), io.Discard); err == nil {
		t.Error("verify of a missing directory succeeded")
	}
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runWALVerify(file, io.Discard); err == nil {
		t.Error("verify of a non-directory succeeded")
	}

	// A directory the two-stream writer left: its first segment
	// fails the verifier by name, and nothing in the directory changes.
	two := t.TempDir()
	src := filepath.Join("..", "..", "internal", "wal", "testdata", "two-stream")
	ents, err = os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(two, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
		before[e.Name()] = string(b)
	}
	if err := runWALVerify(two, io.Discard); err == nil || !strings.Contains(err.Error(), "wal-0000-0000000000000003.seg") {
		t.Errorf("verify of a two-stream directory: %v (want an error naming its first segment)", err)
	}
	after, err := os.ReadDir(two)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range after {
		b, err := os.ReadFile(filepath.Join(two, e.Name()))
		if err != nil || before[e.Name()] != string(b) {
			t.Errorf("verify of a two-stream directory changed %s (%v)", e.Name(), err)
		}
	}
	if len(after) != len(before) {
		t.Errorf("verify of a two-stream directory left %d files, had %d", len(after), len(before))
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestServeModeNeedsAMode: with no -listen, -replay or -wal there is nothing
// to serve, and the error names the modes instead of exiting silently.
func TestServeModeNeedsAMode(t *testing.T) {
	err := serveMode("", "", serve.Config{Shards: 1}, "", wal.Options{})
	if err == nil {
		t.Fatal("serveMode with no mode succeeded")
	}
	for _, flag := range []string{"-listen", "-replay", "-wal", "-wal-verify"} {
		if !strings.Contains(err.Error(), flag) {
			t.Errorf("error %q does not name %s", err, flag)
		}
	}
}

// TestSetupServerWithoutWAL: serving without -wal gets an ordinary
// in-memory server, no log.
func TestSetupServerWithoutWAL(t *testing.T) {
	sv, wlog, rst, err := setupServer("", serve.Config{Shards: 4, RefitMode: wire.RefitWarm}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wlog != nil || rst.NextLSN != 0 {
		t.Errorf("no -wal: got wal=%v recovery=%v", wlog, rst)
	}
	if sv.WAL() != nil {
		t.Error("server has a WAL attached without -wal")
	}
}

// writeDump writes a small three-job wire dump (specs, then task starts) to
// a temporary file and returns its path and element count.
func writeDump(t *testing.T) (string, int) {
	t.Helper()
	var specs []wire.JobSpec
	var events []wire.Event
	for job := uint64(1); job <= 3; job++ {
		specs = append(specs, wire.JobSpec{JobID: job, Schema: []string{"cpu"}, NumTasks: 4,
			TauStra: 10, Horizon: 100, Checkpoints: 4, WarmFrac: 0.25, Seed: job})
		for tid := 0; tid < 4; tid++ {
			events = append(events, wire.Event{Kind: wire.EventTaskStart, JobID: job,
				TaskID: tid, Time: float64(tid)})
		}
	}
	dump := filepath.Join(t.TempDir(), "dump.wire")
	f, err := os.Create(dump)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteDump(f, specs, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dump, len(specs) + len(events)
}

// TestServeModeWALReplayCheckpoints: -wal with -replay recovers, replays the
// dump in-process, and checkpoints the server's log once the replay drains.
// A rerun of the same command finds every element already logged and
// applies nothing twice.
func TestServeModeWALReplayCheckpoints(t *testing.T) {
	dir := t.TempDir()
	dump, elements := writeDump(t)
	wopts := wal.Options{SyncEvery: time.Millisecond}
	for run := 0; run < 2; run++ {
		if err := serveMode("", dump, serve.Config{Shards: 2}, dir, wopts); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	_, wlog, rst, err := serve.Recover(dir, serve.Config{Shards: 2}, wopts)
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	if rst.SnapshotPath == "" {
		t.Error("no checkpoint snapshot after a -wal -replay run")
	}
	if want := uint64(elements + 1); rst.NextLSN != want {
		t.Errorf("recovered to LSN %d after two runs, want %d (each element logged once)", rst.NextLSN, want)
	}
}

// TestServeModeReplaysBeforeListening: with -listen and -replay the dump
// loads first and the listener opens after it drains. An address already in
// use fails the listen, and by then the whole dump is in the log and
// checkpointed.
func TestServeModeReplaysBeforeListening(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	dir := t.TempDir()
	dump, elements := writeDump(t)
	wopts := wal.Options{SyncEvery: time.Millisecond}
	if err := serveMode(busy.Addr().String(), dump, serve.Config{Shards: 2}, dir, wopts); err == nil {
		t.Fatal("serveMode listened on an address already in use")
	}
	_, wlog, rst, err := serve.Recover(dir, serve.Config{Shards: 2}, wopts)
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	if rst.SnapshotPath == "" || rst.NextLSN != uint64(elements+1) {
		t.Errorf("before the listen failed: snapshot %q, next LSN %d; want a checkpoint and LSN %d",
			rst.SnapshotPath, rst.NextLSN, elements+1)
	}
}
