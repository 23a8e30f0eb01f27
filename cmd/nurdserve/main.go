// Command nurdserve runs the durable wire-facing server. -replay loads a
// recorded trace dump (cmd/tracegen -format wire) into the server in-process,
// as fast as it ingests, and prints a per-job table; -listen then opens the
// HTTP front end (POST /ingest, GET /query, /report, /stats, /snapshot) and
// serves until killed. The listener opens only after a -replay drains, so the
// dump is the only mutation source while it loads. A dump is itself a valid
// POST /ingest body, so a running server loads one with a single request;
// cmd/nurdload is the paced, open-loop load driver; the served-vs-offline F1
// equivalence is pinned by internal/serve's tests.
//
// -wal <dir> makes the server durable: every accepted mutation is appended
// to a write-ahead log in dir before it is acknowledged, and on start the
// server automatically recovers by replaying the newest checkpoint base and
// then the log past its floor. The log is one stream of rotating segment
// files and checkpoints itself once -wal-checkpoint-bytes have been appended
// since the last checkpoint: a checkpoint compacts the log into
// base-<floor>.dump, a plain dump of every live job's spec and event frames,
// and retires the segments it covers, so the retained segments stay bounded
// without operator action. It does not bound recovery time: a base keeps
// every live job's frames, and only drops shrink what a recovery replays. GET /snapshot streams such a base (it is itself a dump
// -replay loads), so it needs -wal: without one it answers 409. Counters
// the log does not carry — queries served, refit wall times — start from
// zero after a recovery.
// Durability is group commit: every -wal-sync window fsyncs what was
// written, and -wal-sync 0 makes each acknowledgment wait for an fsync that
// covers it. A -replay after a recovery resumes the dump exactly where the
// crashed process stopped — kill -9 mid-replay, rerun the same command, and
// no event is lost or applied twice (the resume math is why the dump must
// be the only mutation source while it loads). The dir must already exist
// and be writable.
//
// -wal-verify <dir> replays a WAL directory's structure offline and prints
// the base it would replay, the log's segment and record counts and the
// recoverable LSN, without starting a server or writing a byte. A directory
// holding a file of a retired layout (a snap-*.snap snapshot, an earlier
// writer's *.seg) fails it, and recovery, naming the file.
//
// -refit-mode selects the checkpoint refit strategy for every job this
// process registers: scratch (retrain from zero — bit-identical to the
// offline Table 3 path) or warm (warm-started incremental boosting — each
// checkpoint extends the previous checkpoint's ensemble, several times
// cheaper per refit, accuracy within a small epsilon of scratch). Fits
// always run on per-shard background workers, off the ingest path; jobs
// recovered from a WAL refit with the mode their specs recorded, whatever
// the flag says today.
//
// -pprof <addr> serves net/http/pprof's profiles on addr, on a listener and
// mux of their own, never on the wire front's; it is off when empty.
//
// Usage:
//
//	nurdserve -listen :8080                       # serve external traffic
//	nurdserve -listen :8080 -pprof 127.0.0.1:6060 # ... and profile it live
//	nurdserve -listen :8080 -refit-mode warm      # warm-started refits
//	nurdserve -listen :0 -replay google-8.wire    # load a dump, then serve it
//	nurdserve -replay google-8.wire               # load a dump, print, exit
//	nurdserve -wal /var/lib/nurd -listen :8080    # durable serving
//	nurdserve -wal ./wal -replay google-8.wire    # crash-resumable replay
//	nurdserve -wal-verify /var/lib/nurd           # offline log inspection
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"time"

	"repro/internal/serve"
	"repro/internal/servehttp"
	"repro/internal/wal"
	"repro/internal/wire"
)

// lifecycle logs the server's lifecycle transitions as slog text records on
// stderr, one stable message and stable keys each (README "Lifecycle log").
// Errors that end the process are plain "nurdserve: ..." lines, and the
// replay's per-job table goes to stdout.
var lifecycle = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	// The server-shape flags bind straight into the serve.Config the server
	// is built from (0 means the default inside NewServer).
	cfg := serve.DefaultConfig()
	var (
		listen    = flag.String("listen", "", "HTTP listen address for the wire front end (e.g. :8080)")
		replay    = flag.String("replay", "", "wire-format trace dump to load in-process before -listen opens (tracegen -format wire)")
		walDir    = flag.String("wal", "", "write-ahead log directory (must exist); enables durable serving with automatic recovery on start")
		syncEvery = flag.Duration("wal-sync", 2*time.Millisecond, "WAL group-commit fsync interval (0 = fsync every append)")
		ckptBytes = flag.Int64("wal-checkpoint-bytes", 64<<20, "automatic WAL checkpoint once this many bytes were appended since the last one (0 disables automatic checkpoints)")
		walVerify = flag.String("wal-verify", "", "offline: replay the WAL directory's structure and print the recoverable LSN, then exit (no server is started)")
		refitMode = flag.String("refit-mode", "scratch", "checkpoint refit strategy: scratch (bit-identical to the offline Table 3 path) or warm (warm-started incremental boosting, several times cheaper per refit)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address, on a listener of its own (empty = off)")
	)
	flag.IntVar(&cfg.Shards, "shards", 0, "server shards (0 = default)")
	// Overload-control knobs (see the README's "Overload behavior").
	flag.IntVar(&cfg.IngestQueue, "ingest-queue", 0, "per-shard ingest queue bound; heartbeats shed (429-class) when full, label-bearing events wait (< 1 = default)")
	flag.Float64Var(&cfg.ClientRate, "client-rate", 0, "per-client token-bucket refill in frames/s on the HTTP front, burst 2x (0 = no rate limiting)")
	flag.Parse()
	var err error
	if cfg.RefitMode, err = wire.ParseRefitMode(*refitMode); err != nil {
		fmt.Fprintln(os.Stderr, "nurdserve:", err)
		os.Exit(1)
	}
	wopts := wal.Options{
		SyncEvery:       *syncEvery,
		CheckpointBytes: *ckptBytes,
	}
	if *walVerify != "" {
		err = runWALVerify(*walVerify, os.Stdout)
	} else if err = servePprof(*pprofAddr); err == nil {
		err = serveMode(*listen, *replay, cfg, *walDir, wopts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nurdserve:", err)
		os.Exit(1)
	}
}

// servePprof serves net/http/pprof's handlers on addr from a goroutine, on a
// listener and mux of their own: the wire front's mux never carries them.
// An empty addr serves nothing.
func servePprof(addr string) error {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	lifecycle.Info("pprof", "url", fmt.Sprintf("http://%s/debug/pprof/", ln.Addr()))
	go http.Serve(ln, mux)
	return nil
}

// runWALVerify prints the offline verifier's report for dir: the newest
// structurally valid base, the log's segment and record counts, and the
// LSN a recovery would resume at — without starting a server or writing to the
// directory.
func runWALVerify(dir string, w io.Writer) error {
	if info, err := os.Stat(dir); err != nil {
		return fmt.Errorf("wal-verify %s: %w", dir, err)
	} else if !info.IsDir() {
		return fmt.Errorf("wal-verify %s: not a directory", dir)
	}
	rep, err := wal.Verify(dir, wal.Options{})
	if err != nil {
		return fmt.Errorf("wal-verify %s: %w", dir, err)
	}
	fmt.Fprintf(w, "%s\n", rep)
	return nil
}

// setupServer builds the serving instance: a plain in-memory server, or —
// when walDir is set — one recovered from walDir's newest base plus
// write-ahead log and wired to keep logging (automatic checkpoints per
// wopts). Callers own Close on the returned WAL
// (nil without -wal). Split from serveMode so flag validation (missing
// dir, unwritable dir) is testable without a live listener. The refit mode
// only shapes *new* registrations: recovered jobs refit with the mode their
// specs recorded, whatever the flag says today.
func setupServer(walDir string, cfg serve.Config, wopts wal.Options) (*serve.Server, *wal.WAL, wal.RecoveryStats, error) {
	if walDir == "" {
		return serve.NewServer(cfg), nil, wal.RecoveryStats{}, nil
	}
	if info, err := os.Stat(walDir); err != nil {
		return nil, nil, wal.RecoveryStats{}, fmt.Errorf("wal dir %s: %w (create it first)", walDir, err)
	} else if !info.IsDir() {
		return nil, nil, wal.RecoveryStats{}, fmt.Errorf("wal dir %s: not a directory", walDir)
	}
	sv, wlog, rst, err := serve.Recover(walDir, cfg, wopts)
	if err != nil {
		return nil, nil, rst, fmt.Errorf("wal recovery from %s: %w", walDir, err)
	}
	return sv, wlog, rst, nil
}

// serveMode runs the durable wire-facing server: it recovers from the
// write-ahead log when walDir is set, loads the replay dump in-process, and
// then, with listen set, serves the HTTP front end until killed.
func serveMode(listen, replay string, cfg serve.Config, walDir string, wopts wal.Options) error {
	if listen == "" && replay == "" && walDir == "" {
		return errors.New("nothing to do: pass -listen, -replay, -wal or -wal-verify (cmd/nurdload drives load)")
	}
	sv, wlog, rst, err := setupServer(walDir, cfg, wopts)
	if err != nil {
		return err
	}
	// Each accepted dump element is one WAL record, so the recovered LSN says
	// how much of the dump the log already holds.
	recovered := 0
	if wlog != nil {
		defer wlog.Close()
		recovered = int(rst.NextLSN) - 1
		base := ""
		if rst.SnapshotPath != "" {
			base = filepath.Base(rst.SnapshotPath)
		}
		lifecycle.Info("wal recovered", "dir", walDir, "mutations", recovered,
			"base", base, "floor", rst.SnapshotLSN, "segments", rst.SegmentsScanned,
			"applied", rst.RecordsApplied, "skipped", rst.RecordsSkipped, "torn", rst.TornTail)
	}
	if replay != "" {
		if err := loadDump(sv, replay, recovered); err != nil {
			return err
		}
	}
	if listen == "" {
		return nil
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	lifecycle.Info("serving", "shards", sv.NumShards(), "url", fmt.Sprintf("http://%s", ln.Addr()))
	return http.Serve(ln, servehttp.NewHandler(sv))
}

// replayStats summarizes one -replay pass: what Feed applied, and how long
// it took.
type replayStats struct {
	serve.Fed
	Wall time.Duration
}

// Rate returns the achieved ingest rate in events per second: 0 for an
// empty replay or a non-positive wall time (never Inf or NaN).
func (st replayStats) Rate() float64 {
	if st.Wall <= 0 || st.Events == 0 {
		return 0
	}
	return float64(st.Events) / st.Wall.Seconds()
}

// feedDump feeds the dump r to sv, past its first skip frames. A server
// recovered from its WAL holds RecoveryStats.NextLSN-1 mutations, and each
// accepted dump frame is one log record, so passing that as skip continues
// the same dump without applying any frame twice. The rest of the dump is
// one Feed, committed once at its end; the log writes what it has staged
// whenever the stage reaches its cap, so memory does not grow with the dump.
func feedDump(sv *serve.Server, r io.Reader, skip int) (replayStats, error) {
	start := time.Now()
	rd := wire.NewReader(r)
	// A frame that fails to read here fails again as Feed's first read,
	// which reports it.
	for ; skip > 0; skip-- {
		if _, _, err := rd.NextFrame(); err != nil {
			break
		}
	}
	fed, err := sv.Feed(rd, nil)
	st := replayStats{Fed: fed, Wall: time.Since(start)}
	if err != nil {
		return st, fmt.Errorf("serve: replay: %w", err)
	}
	return st, nil
}

// loadDump replays the dump at path into sv, skipping the first skip
// frames, checkpoints the server's WAL (if any) once the replay drains,
// and prints the replay rate, a per-job table and the server stats.
func loadDump(sv *serve.Server, path string, skip int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if skip > 0 {
		// The WAL already holds the dump's first skip elements.
		lifecycle.Info("resuming replay", "element", skip)
	}
	st, err := feedDump(sv, f, skip)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d jobs, %d events in %s (%.0f events/s)\n",
		st.Specs, st.Events, st.Wall.Round(time.Millisecond), st.Rate())
	if sv.WAL() != nil {
		snap, retired, err := sv.CheckpointWAL()
		if err != nil {
			return err
		}
		lifecycle.Info("checkpointed", "base", snap, "retired", retired)
	}
	fmt.Printf("%8s %6s %6s %6s %6s %7s %10s %5s\n",
		"job", "cp", "start", "finis", "term", "refits", "refit-mean", "done")
	for _, id := range sv.JobIDs() {
		rep, err := sv.Report(id)
		if err != nil {
			return err
		}
		fmt.Printf("%8d %6d %6d %6d %6d %7d %10s %5v\n",
			id, rep.Checkpoint, rep.Started, rep.Finished, rep.Terminated,
			rep.Refits, rep.RefitMean().Round(time.Microsecond), rep.Done)
	}
	fmt.Println("server:", sv.Stats())
	return nil
}
