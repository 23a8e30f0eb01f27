// Command nurdserve runs the durable wire-facing server. -listen starts the
// HTTP front end (POST /ingest, GET /query, /report, /stats, /snapshot), and
// -replay streams a recorded trace dump (cmd/tracegen -format wire) into the
// server — over HTTP when -listen is set (the full network path: dump bytes
// through POST /ingest), in-process otherwise — at -speedup times recorded
// speed. cmd/nurdload is the load driver; the served-vs-offline F1
// equivalence is pinned by internal/serve's tests.
//
// -wal <dir> makes the server durable between snapshots: every accepted
// mutation is appended to a write-ahead log in dir before it is
// acknowledged, and on start the server automatically recovers from the
// newest snapshot plus the log (point-in-time recovery). The log is
// sharded — each registry shard's jobs append to their own segment stream
// (one per shard, capped at GOMAXPROCS) — and checkpoints itself on a
// time and/or size policy (-wal-checkpoint-every / -wal-checkpoint-bytes),
// so the retained log and recovery time stay bounded without operator
// action. Durability is per-stream group commit: every -wal-sync window
// fsyncs each stream that took appends. A -replay after a recovery resumes
// the dump exactly where the crashed process stopped — kill -9 mid-replay,
// rerun the same command, and no event is lost or applied twice. That
// resume math requires the dump to be the only mutation source, so with
// -wal the -listen front end opens only after the replay drains. The dir
// must already exist and be writable.
//
// -wal-verify <dir> replays a WAL directory's structure offline and prints
// the recoverable LSN per shard plus the snapshot it would restore from,
// without starting a server or writing a byte.
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
// Usage:
//
//	nurdserve -listen :8080                       # serve external traffic
//	nurdserve -listen :8080 -refit-mode warm      # warm-started refits
//	nurdserve -listen :0 -replay google-8.wire    # serve a recorded trace
//	nurdserve -replay google-8.wire -speedup 1000 # in-process replay
//	nurdserve -wal /var/lib/nurd -listen :8080    # durable serving
//	nurdserve -wal ./wal -replay google-8.wire    # crash-resumable replay
//	nurdserve -wal-verify /var/lib/nurd           # offline log inspection
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/serve"
	"repro/internal/servehttp"
	"repro/internal/wal"
	"repro/internal/wire"
)

func main() {
	// The server-shape flags bind straight into the serve.Config the server
	// is built from (0 means the default inside NewServer).
	cfg := serve.DefaultConfig()
	var (
		listen    = flag.String("listen", "", "HTTP listen address for the wire front end (e.g. :8080)")
		replay    = flag.String("replay", "", "wire-format trace dump to replay (tracegen -format wire)")
		speedup   = flag.Float64("speedup", 0, "replay pacing as a multiple of recorded time (0 = as fast as possible)")
		hold      = flag.Duration("hold", 0, "with -listen and -replay: keep serving this long after the replay drains")
		walDir    = flag.String("wal", "", "write-ahead log directory (must exist); enables durable serving with automatic recovery on start")
		syncEvery = flag.Duration("wal-sync", 2*time.Millisecond, "WAL group-commit fsync interval (0 = fsync every append)")
		ckptEvery = flag.Duration("wal-checkpoint-every", time.Minute, "automatic WAL checkpoint period (0 disables the time trigger)")
		ckptBytes = flag.Int64("wal-checkpoint-bytes", 64<<20, "automatic WAL checkpoint once this many bytes were appended since the last one (0 disables the size trigger)")
		walVerify = flag.String("wal-verify", "", "offline: replay the WAL directory's structure and print the recoverable LSN per shard, then exit (no server is started)")
		refitMode = flag.String("refit-mode", "scratch", "checkpoint refit strategy: scratch (bit-identical to the offline Table 3 path) or warm (warm-started incremental boosting, several times cheaper per refit)")
	)
	flag.IntVar(&cfg.Shards, "shards", 0, "server shards (0 = default)")
	// Overload-control knobs (see the README's "Overload behavior").
	flag.IntVar(&cfg.IngestQueue, "ingest-queue", 0, "per-shard ingest queue bound; heartbeats shed (429-class) when full, label-bearing events wait (< 1 = default)")
	flag.IntVar(&cfg.RefitQueue, "refit-queue", 0, "per-shard refit queue bound; saturated fits run inline on the ingest path (< 1 = default)")
	flag.Float64Var(&cfg.ClientRate, "client-rate", 0, "per-client token-bucket refill in frames/s on the HTTP front, burst 2x (0 = no rate limiting)")
	flag.DurationVar(&cfg.DegradedAfter, "degraded-after", 0, "serve stale flagged verdicts when a job lock is not free within this (0 = queries always wait)")
	flag.Parse()
	var err error
	if cfg.RefitMode, err = wire.ParseRefitMode(*refitMode); err != nil {
		fmt.Fprintln(os.Stderr, "nurdserve:", err)
		os.Exit(1)
	}
	wopts := wal.Options{
		SyncEvery:       *syncEvery,
		CheckpointEvery: *ckptEvery,
		CheckpointBytes: *ckptBytes,
	}
	if *walVerify != "" {
		err = runWALVerify(*walVerify, os.Stdout)
	} else {
		err = serveMode(*listen, *replay, cfg, *speedup, *hold, *walDir, wopts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nurdserve:", err)
		os.Exit(1)
	}
}

// runWALVerify prints the offline verifier's report for dir: the newest
// structurally valid snapshot, the per-shard stream states, and the LSN a
// recovery would resume at — without starting a server or writing to the
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
// when walDir is set — one recovered from walDir's newest snapshot plus
// write-ahead log and wired to keep logging (per-shard segment streams,
// automatic checkpoints per wopts). Callers own Close on the returned WAL
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

// serveMode runs the durable wire-facing server: an HTTP front end, a
// dump replay, or both (dump streamed through the front end), optionally
// on top of a write-ahead log with automatic recovery.
func serveMode(listen, replay string, cfg serve.Config, speedup float64, hold time.Duration, walDir string, wopts wal.Options) error {
	if listen == "" && replay == "" && walDir == "" {
		return errors.New("nothing to do: pass -listen, -replay, -wal or -wal-verify (cmd/nurdload drives load)")
	}
	sv, wlog, rst, err := setupServer(walDir, cfg, wopts)
	if err != nil {
		return err
	}
	recovered := 0
	if wlog != nil {
		defer wlog.Close()
		recovered = int(rst.NextLSN) - 1
		fmt.Fprintf(os.Stderr, "nurdserve: wal %s: recovered %d mutations (%v)\n", walDir, recovered, rst)
	}

	// With a WAL, resuming a -replay after a crash maps the recovered LSN
	// back to a dump position — which is only exact if the dump was the
	// sole source of mutations. So under -wal the listener opens after the
	// replay drains; external traffic before that could consume LSNs the
	// resume math would then wrongly charge to the dump.
	var base string
	var srv *http.Server
	startListener := func() error {
		if listen == "" || srv != nil {
			return nil
		}
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return err
		}
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "nurdserve: serving %d shards on %s\n", sv.NumShards(), base)
		srv = &http.Server{Handler: servehttp.NewHandler(sv)}
		go srv.Serve(ln)
		return nil
	}
	defer func() {
		if srv != nil {
			srv.Close()
		}
	}()
	if wlog == nil || replay == "" {
		if err := startListener(); err != nil {
			return err
		}
	} else if listen != "" {
		fmt.Fprintf(os.Stderr, "nurdserve: wal enabled: listener opens after the replay drains (crash-resume needs the dump to be the only mutation source)\n")
	}

	if replay != "" {
		f, err := os.Open(replay)
		if err != nil {
			return err
		}
		defer f.Close()
		if recovered > 0 {
			fmt.Fprintf(os.Stderr, "nurdserve: resuming replay at element %d (the WAL already holds the rest)\n", recovered)
		}
		var st servehttp.ReplayStats
		if base != "" {
			// Only reachable without -wal (the listener is deferred until
			// the replay drains otherwise), so there is never anything to
			// skip on this path; crash-resume replays run in-process.
			fmt.Fprintf(os.Stderr, "nurdserve: replaying %s through POST %s/ingest (speedup %g)\n", replay, base, speedup)
			st, err = servehttp.ReplayHTTP(nil, base, f, speedup, 2048)
		} else {
			fmt.Fprintf(os.Stderr, "nurdserve: replaying %s in-process (speedup %g)\n", replay, speedup)
			st, err = servehttp.ReplayFrom(sv, f, speedup, recovered)
		}
		if err != nil {
			return err
		}
		fmt.Printf("replayed %d jobs, %d events in %s (%.0f events/s, max pacing lag %s)\n",
			st.Specs, st.Events, st.Wall.Round(time.Millisecond), st.Rate(),
			st.MaxLag.Round(time.Millisecond))
		if wlog != nil {
			path, retired, err := sv.CheckpointWAL()
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "nurdserve: checkpointed to %s (%d segments retired)\n", path, retired)
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
	}

	if listen != "" {
		if err := startListener(); err != nil { // deferred under -wal -replay
			return err
		}
		if replay == "" {
			select {} // serve external traffic until killed
		}
		if hold > 0 {
			fmt.Fprintf(os.Stderr, "nurdserve: holding %s for external queries\n", hold)
			time.Sleep(hold)
		}
	}
	return nil
}
