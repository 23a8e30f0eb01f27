package main

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
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
// server left behind — rotated segments, a checkpoint base, and a torn
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
		"base: base-",
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

// TestReplayFromSkips: a dump replayed into a recovered server resumes past
// the mutations the WAL already holds — the nurdserve -wal -replay path.
func TestReplayFromSkips(t *testing.T) {
	jobs, sims := servetest.SmallJobs(t, 2, 79)
	specs := make([]wire.JobSpec, len(jobs))
	streams := make([][]wire.Event, len(jobs))
	for i := range jobs {
		specs[i] = serve.SpecFor(sims[i], 79+uint64(i))
		streams[i] = serve.JobEvents(jobs[i], sims[i])
	}
	var all []wire.Event
	all = append(all, serve.MergeStreams(streams...)...)
	var dump bytes.Buffer
	if err := wire.WriteDump(&dump, specs, all); err != nil {
		t.Fatal(err)
	}

	// Reference: the whole dump into a fresh server.
	ref := serve.NewServer(servetest.CheapConfig(1))
	if _, err := feedDump(ref, bytes.NewReader(dump.Bytes()), 0); err != nil {
		t.Fatal(err)
	}

	// Interrupted: half the dump under a WAL, crash, recover, resume with
	// feedDump skipping to the recovered position.
	dir := t.TempDir()
	sv, wlog, _, err := serve.Recover(dir, servetest.CheapConfig(1), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	half := len(specs) + len(all)/2
	for i := range specs {
		if err := sv.StartJob(specs[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := servetest.IngestBatch(sv, all[:half-len(specs)]); err != nil {
		t.Fatal(err)
	}
	wlog.Close()
	sv2, wal2, rst, err := serve.Recover(dir, servetest.CheapConfig(1), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := int(rst.NextLSN) - 1; got != half {
		t.Fatalf("recovered %d mutations, want %d", got, half)
	}
	st, err := feedDump(sv2, bytes.NewReader(dump.Bytes()), int(rst.NextLSN)-1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Specs != 0 || st.Events != len(all)-(half-len(specs)) {
		t.Errorf("resumed replay applied %d specs / %d events", st.Specs, st.Events)
	}
	for i := range specs {
		want, _ := ref.Query(specs[i].JobID, servetest.AllTaskIDs(specs[i].NumTasks))
		got, err := sv2.Query(specs[i].JobID, servetest.AllTaskIDs(specs[i].NumTasks))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %d: resumed-replay verdicts diverge from uninterrupted replay", specs[i].JobID)
		}
	}
}

// TestReplayStatsRate pins the Rate guard: empty dumps, single-event dumps,
// and degenerate wall times must yield a finite rate — never Inf or NaN.
func TestReplayStatsRate(t *testing.T) {
	// Constructed degenerate stats.
	for _, tc := range []struct {
		st   replayStats
		want float64
	}{
		{replayStats{Fed: serve.Fed{Events: 10}, Wall: 0}, 0},
		{replayStats{Fed: serve.Fed{Events: 10}, Wall: -time.Second}, 0},
		{replayStats{Fed: serve.Fed{Events: 0}, Wall: time.Second}, 0},
		{replayStats{Fed: serve.Fed{Events: 10}, Wall: 2 * time.Second}, 5},
	} {
		got := tc.st.Rate()
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("Rate(%+v) = %v: not finite", tc.st, got)
		}
		if got != tc.want {
			t.Errorf("Rate(%+v) = %v, want %v", tc.st, got, tc.want)
		}
	}

	// An empty dump (header only) replays to zero events in ~zero wall time.
	var empty bytes.Buffer
	if err := wire.WriteDump(&empty, nil, nil); err != nil {
		t.Fatal(err)
	}
	st, err := feedDump(serve.NewServer(serve.Config{Shards: 1}), bytes.NewReader(empty.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := st.Rate(); r != 0 || math.IsNaN(r) {
		t.Errorf("empty dump Rate() = %v, want 0", r)
	}

	// A single-event dump: one spec, the stream's first event.
	jobs, sims := servetest.SmallJobs(t, 1, 59)
	specs := []wire.JobSpec{serve.SpecFor(sims[0], 100)}
	events := serve.JobEvents(jobs[0], sims[0])
	var one bytes.Buffer
	if err := wire.WriteDump(&one, specs, events[:1]); err != nil {
		t.Fatal(err)
	}
	st, err = feedDump(serve.NewServer(serve.Config{Shards: 1}), bytes.NewReader(one.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 1 {
		t.Fatalf("single-event dump applied %d events", st.Events)
	}
	if r := st.Rate(); math.IsInf(r, 0) || math.IsNaN(r) || r < 0 {
		t.Errorf("single-event dump Rate() = %v: not a finite non-negative rate", r)
	}
}

// TestMain runs the command itself when asked to: a test that needs a live
// nurdserve process re-executes this binary with runMainEnv set and the
// command's flags as its arguments.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

const runMainEnv = "NURDSERVE_TEST_RUN_MAIN"

// TestPprofHasItsOwnListener: -pprof serves the profiles on a listener of
// its own — /debug/pprof/cmdline answers there — and the -listen front does
// not carry them.
func TestPprofHasItsOwnListener(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0", "-pprof", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	// The two listeners announce themselves on stderr.
	addrs := make(chan [2]string, 1)
	go func() {
		var pp, front string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			switch msg, attrs := parseRecord(sc.Text()); msg {
			case "pprof":
				pp = strings.TrimSuffix(strings.TrimPrefix(attrs["url"], "http://"), "/debug/pprof/")
			case "serving":
				front = strings.TrimPrefix(attrs["url"], "http://")
			}
			if pp != "" && front != "" {
				addrs <- [2]string{pp, front}
				break
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	var a [2]string
	select {
	case a = <-addrs:
	case <-time.After(20 * time.Second):
		t.Fatal("nurdserve never announced both listeners")
	}
	if a[0] == a[1] {
		t.Fatalf("pprof and the front share %s", a[0])
	}
	for _, tc := range []struct {
		addr, path string
		want       int
	}{
		{a[0], "/debug/pprof/cmdline", http.StatusOK},
		{a[1], "/debug/pprof/", http.StatusNotFound},
		{a[1], "/stats", http.StatusOK},
	} {
		resp, err := http.Get("http://" + tc.addr + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s%s: %d, want %d", tc.addr, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// parseRecord splits one slog text record into its message and its other
// attributes (time and level dropped), unquoting quoted values. A line that
// is not a record has no message.
func parseRecord(line string) (msg string, attrs map[string]string) {
	attrs = map[string]string{}
	for line != "" {
		key, rest, ok := strings.Cut(line, "=")
		if !ok {
			return "", nil
		}
		val := rest
		if strings.HasPrefix(rest, `"`) {
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return "", nil
			}
			val, _ = strconv.Unquote(q)
			rest = rest[len(q):]
		} else {
			val, rest, _ = strings.Cut(rest, " ")
			rest = " " + rest
		}
		attrs[key] = val
		line = strings.TrimPrefix(rest, " ")
	}
	msg = attrs["msg"]
	delete(attrs, "msg")
	delete(attrs, "time")
	delete(attrs, "level")
	return msg, attrs
}

// TestLifecycleTableMatchesEmitted holds README's "Lifecycle log" table to
// what nurdserve writes on stderr: a -wal -replay run, then a rerun that
// resumes the replay and goes on to serve with -pprof, emit every message
// in the table, each with exactly the keys the table lists, and nothing
// else.
func TestLifecycleTableMatchesEmitted(t *testing.T) {
	dir := t.TempDir()
	dump, _ := writeDump(t)
	emitted := map[string]string{}
	record := func(line string) string {
		msg, attrs := parseRecord(line)
		if msg == "" {
			t.Errorf("stderr line %q is not a slog text record", line)
			return ""
		}
		keys := make([]string, 0, len(attrs))
		for k := range attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		got := strings.Join(keys, " ")
		if prev, ok := emitted[msg]; ok && prev != got {
			t.Errorf("%q emitted with keys %q and %q", msg, prev, got)
		}
		emitted[msg] = got
		return msg
	}
	run := func(args ...string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		return cmd
	}

	first := run("-wal", dir, "-replay", dump)
	var stderr bytes.Buffer
	first.Stderr = &stderr
	if err := first.Run(); err != nil {
		t.Fatalf("first run: %v\n%s", err, stderr.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
		record(line)
	}

	second := run("-wal", dir, "-replay", dump, "-listen", "127.0.0.1:0", "-pprof", "127.0.0.1:0")
	pipe, err := second.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		second.Process.Kill()
		second.Wait()
	}()
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	timeout := time.After(20 * time.Second)
	for serving := false; !serving; {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("the second run exited before it served")
			}
			serving = record(line) == "serving"
		case <-timeout:
			t.Fatal("the second run never announced that it serves")
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### Lifecycle log\n")
	if !ok {
		t.Fatal(`README has no "### Lifecycle log" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	listed := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 5 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		var keys []string
		for i, k := range strings.Split(cells[2], "`") {
			if i%2 == 1 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		listed[strings.Trim(strings.TrimSpace(cells[1]), "`")] = strings.Join(keys, " ")
	}
	if !reflect.DeepEqual(listed, emitted) {
		t.Errorf("README lists\n %v\nnurdserve emits\n %v", listed, emitted)
	}
}
