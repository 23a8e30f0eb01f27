// Command nurdserve drives the online serving path under heavy multi-job
// traffic. In its default load-driver mode it generates trace jobs,
// flattens them into interleaved monitoring-event streams, replays the
// streams through a serve.Server from concurrent workers at a configurable
// event rate, and cross-checks every job's end-of-job F1 against the
// offline experiments.Run NURD path on the same seed.
//
// With -listen and/or -replay it instead runs the durable wire-facing
// server: -listen starts the HTTP front end (POST /ingest, GET /query,
// /report, /stats, /snapshot), and -replay streams a recorded trace dump
// (cmd/tracegen -format wire) into the server — over HTTP when -listen is
// set (the full network path: dump bytes through POST /ingest), in-process
// otherwise — at -speedup times recorded speed.
//
// -wal <dir> makes the server durable between snapshots: every accepted
// mutation is appended to a write-ahead log in dir before it is
// acknowledged, and on start the server automatically recovers from the
// newest snapshot plus the log (point-in-time recovery). The log is
// sharded — each registry shard's jobs append to their own segment stream
// (-wal-streams; 0 follows the shard count, capped at GOMAXPROCS) — and checkpoints itself on a
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
// cheaper per refit, accuracy within a small epsilon of scratch). In the
// load-driver mode the offline reference uses the same strategy, so the
// bit-identical cross-check holds for both. Fits always run on per-shard
// background workers (-refit-workers), off the ingest path; jobs recovered
// from a WAL refit with the mode their specs recorded, whatever the flag
// says today.
//
// Usage:
//
//	nurdserve -jobs 20 -seed 42 -workers 8
//	nurdserve -trace alibaba -jobs 40 -rate 50000
//	nurdserve -shards 32 -workers 16 -jobs 64
//	nurdserve -jobs 20 -refit-mode warm           # warm-started refits
//	nurdserve -listen :8080                       # serve external traffic
//	nurdserve -listen :0 -replay google-8.wire    # serve a recorded trace
//	nurdserve -replay google-8.wire -speedup 1000 # in-process replay
//	nurdserve -wal /var/lib/nurd -listen :8080    # durable serving
//	nurdserve -wal ./wal -replay google-8.wire    # crash-resumable replay
//	nurdserve -wal-verify /var/lib/nurd           # offline log inspection
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/serve"
	"repro/internal/servehttp"
	"repro/internal/simulator"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

func main() {
	// The server-shape flags bind straight into the serve.Config every mode
	// builds its server from (-shards 0 means default inside NewServer).
	cfg := serve.DefaultConfig()
	var (
		traceName = flag.String("trace", "google", "trace flavor: google|alibaba")
		jobs      = flag.Int("jobs", 20, "number of jobs to stream concurrently")
		seed      = flag.Uint64("seed", 42, "master RNG seed (matches nurdbench)")
		workers   = flag.Int("workers", 8, "concurrent ingest workers (jobs are partitioned across them)")
		rate      = flag.Float64("rate", 0, "target ingest rate in events/s across all workers (0 = unthrottled)")
		tolerance = flag.Float64("tolerance", 1e-9, "max tolerated per-job |served F1 - offline F1|")
		listen    = flag.String("listen", "", "HTTP listen address for the wire front end (e.g. :8080); empty = load-driver mode")
		replay    = flag.String("replay", "", "wire-format trace dump to replay (tracegen -format wire)")
		speedup   = flag.Float64("speedup", 0, "replay pacing as a multiple of recorded time (0 = as fast as possible)")
		hold      = flag.Duration("hold", 0, "with -listen and -replay: keep serving this long after the replay drains")
		walDir    = flag.String("wal", "", "write-ahead log directory (must exist); enables durable serving with automatic recovery on start")
		syncEvery = flag.Duration("wal-sync", 2*time.Millisecond, "WAL group-commit fsync interval (0 = fsync every append)")
		walStream = flag.Int("wal-streams", 0, "per-shard WAL segment streams (0 = the server's shard count, capped at GOMAXPROCS)")
		ckptEvery = flag.Duration("wal-checkpoint-every", time.Minute, "automatic WAL checkpoint period (0 disables the time trigger)")
		ckptBytes = flag.Int64("wal-checkpoint-bytes", 64<<20, "automatic WAL checkpoint once this many bytes were appended since the last one (0 disables the size trigger)")
		walVerify = flag.String("wal-verify", "", "offline: replay the WAL directory's structure and print the recoverable LSN per shard, then exit (no server is started)")
		refitMode = flag.String("refit-mode", "scratch", "checkpoint refit strategy: scratch (bit-identical to the offline Table 3 path) or warm (warm-started incremental boosting, several times cheaper per refit)")
	)
	flag.IntVar(&cfg.Shards, "shards", 0, "server shards (0 = default)")
	flag.IntVar(&cfg.RefitWorkers, "refit-workers", 0, "background refit workers per shard (0 = default); model fits run on these, off the ingest path")
	// Overload-control knobs (see the README's "Overload behavior").
	flag.IntVar(&cfg.IngestQueue, "ingest-queue", 0, "per-shard ingest queue bound; heartbeats shed (429-class) when full, label-bearing events wait (0 = default, negative = unbounded)")
	flag.IntVar(&cfg.RefitQueue, "refit-queue", 0, "per-shard refit queue bound; saturated fits run inline on the ingest path (0 = default, negative = unbounded)")
	flag.Float64Var(&cfg.ClientRate, "client-rate", 0, "per-client token-bucket refill in frames/s on the HTTP front (0 = no rate limiting)")
	flag.IntVar(&cfg.ClientBurst, "client-burst", 0, "per-client token-bucket burst (0 = derived from -client-rate)")
	flag.DurationVar(&cfg.DegradedAfter, "degraded-after", 0, "serve stale flagged verdicts when a job lock is not free within this (0 = queries always wait)")
	flag.Parse()
	var err error
	if cfg.RefitMode, err = wire.ParseRefitMode(*refitMode); err != nil {
		fmt.Fprintln(os.Stderr, "nurdserve:", err)
		os.Exit(1)
	}
	wopts := wal.Options{
		SyncEvery:       *syncEvery,
		Streams:         *walStream,
		CheckpointEvery: *ckptEvery,
		CheckpointBytes: *ckptBytes,
	}
	switch {
	case *walVerify != "":
		err = runWALVerify(*walVerify, os.Stdout)
	case *listen != "" || *replay != "" || *walDir != "":
		err = serveMode(*listen, *replay, cfg, *speedup, *hold, *walDir, wopts)
	default:
		err = run(*traceName, *jobs, *seed, *workers, cfg, *rate, *tolerance)
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

func run(traceName string, numJobs int, seed uint64, workers int, cfg serve.Config, rate, tolerance float64) error {
	if numJobs < 1 {
		return fmt.Errorf("need >= 1 job, got %d", numJobs)
	}
	if workers < 1 {
		workers = 1
	}
	var gcfg trace.GenConfig
	switch traceName {
	case "google":
		gcfg = trace.DefaultGoogleConfig(seed)
	case "alibaba":
		// The same seed transformation experiments.AlibabaSpec applies, so
		// job ji here is job ji of the offline Alibaba evaluation.
		gcfg = trace.DefaultAlibabaConfig(seed ^ 0xa11baba)
	default:
		return fmt.Errorf("unknown trace %q", traceName)
	}

	gen, err := trace.NewGenerator(gcfg)
	if err != nil {
		return err
	}
	jobs := gen.Jobs(numJobs)
	sims := make([]*simulator.Sim, numJobs)
	for i, j := range jobs {
		if sims[i], err = simulator.New(j, simulator.DefaultConfig()); err != nil {
			return err
		}
	}
	mi, _, ok := predictor.FindFactory("NURD")
	if !ok {
		return fmt.Errorf("NURD factory not found")
	}
	// experiments.Run's per-(job, method) seed derivation: replaying the
	// NURD row here with the same seeds makes the offline reference the
	// exact Table 3 NURD path for these jobs.
	seedFor := func(ji int) uint64 {
		return experiments.UnitSeed(seed, ji, mi)
	}
	// specFor stamps the refit mode so both the server and the offline
	// reference build the very predictor serve's default factory would —
	// the bit-identical cross-check holds for both strategies (warm vs the
	// scratch Table 3 path is a separate, epsilon-bounded comparison — see
	// internal/serve's tests).
	specFor := func(ji int) wire.JobSpec {
		spec := serve.SpecFor(sims[ji], seedFor(ji))
		spec.RefitMode = cfg.RefitMode
		return spec
	}
	newPred := func(ji int) simulator.Predictor {
		return serve.NewNURDPredictor(specFor(ji))
	}

	fmt.Fprintf(os.Stderr, "offline reference: %d %s jobs through the %s-refit NURD path...\n",
		numJobs, traceName, cfg.RefitMode)
	offline := make([]*simulator.Result, numJobs)
	{
		// Per-job replays are independent; fan them across cores like
		// experiments.Run does.
		var owg sync.WaitGroup
		offErrs := make([]error, numJobs)
		units := make(chan int)
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			owg.Add(1)
			go func() {
				defer owg.Done()
				for ji := range units {
					offline[ji], offErrs[ji] = simulator.Evaluate(sims[ji], newPred(ji))
				}
			}()
		}
		for ji := range jobs {
			units <- ji
		}
		close(units)
		owg.Wait()
		for _, err := range offErrs {
			if err != nil {
				return err
			}
		}
	}

	streams := make([][]wire.Event, numJobs)
	totalEvents := 0
	for ji := range jobs {
		streams[ji] = serve.JobEvents(jobs[ji], sims[ji])
		totalEvents += len(streams[ji])
	}

	sv := serve.NewServer(cfg)
	for ji := range jobs {
		if err := sv.StartJob(specFor(ji), newPred(ji)); err != nil {
			return err
		}
	}

	// Partition jobs round-robin across workers; each worker merges its
	// jobs' streams into one time-ordered feed (per-job order preserved)
	// and ingests it, so the server sees interleaved traffic from all
	// workers at once.
	feeds := make([][]wire.Event, workers)
	for w := 0; w < workers; w++ {
		var own [][]wire.Event
		for ji := w; ji < numJobs; ji += workers {
			own = append(own, streams[ji])
		}
		feeds[w] = serve.MergeStreams(own...)
	}
	perWorkerRate := rate / float64(workers)

	fmt.Fprintf(os.Stderr, "streaming %d events for %d jobs over %d workers (%d shards)...\n",
		totalEvents, numJobs, workers, sv.NumShards())
	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = ingest(sv, feeds[w], perWorkerRate)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	fmt.Printf("=== nurdserve — online streaming vs offline NURD (%s, seed %d, %s refits) ===\n",
		traceName, seed, cfg.RefitMode)
	fmt.Printf("%5s %8s %6s %6s %10s %10s %10s %7s %10s\n",
		"job", "profile", "tasks", "strag", "offlineF1", "servedF1", "|dF1|", "refits", "refit-mean")
	var servedRates, offlineRates []metrics.Rates
	worst := 0.0
	mismatches := 0
	for ji := range jobs {
		rep, err := sv.Report(jobs[ji].ID)
		if err != nil {
			return err
		}
		sc := rep.Confusion(sims[ji].Truth())
		of := offline[ji].Final
		d := math.Abs(sc.F1() - of.F1())
		if d > worst {
			worst = d
		}
		if d > tolerance {
			mismatches++
		}
		servedRates = append(servedRates, metrics.RatesOf(sc))
		offlineRates = append(offlineRates, metrics.RatesOf(of))
		fmt.Printf("%5d %8s %6d %6d %10.4f %10.4f %10.2e %7d %10s\n",
			jobs[ji].ID, jobs[ji].Profile, jobs[ji].NumTasks(), sims[ji].NumStragglers(),
			of.F1(), sc.F1(), d, rep.Refits, rep.RefitMean().Round(time.Microsecond))
	}
	st := sv.Stats()
	sAvg, oAvg := metrics.MacroAverage(servedRates), metrics.MacroAverage(offlineRates)
	fmt.Printf("\nmacro-avg F1: served %.4f, offline %.4f (worst per-job |dF1| %.2e)\n",
		sAvg.F1, oAvg.F1, worst)
	fmt.Printf("throughput:   %d events in %s = %.0f events/s over %d workers\n",
		st.Events, elapsed.Round(time.Millisecond), float64(st.Events)/elapsed.Seconds(), workers)
	fmt.Printf("refits:       %d total, mean %s, max %s\n",
		st.Refits, st.RefitMean().Round(time.Microsecond), st.RefitMax.Round(time.Microsecond))
	fmt.Printf("server:       %s\n", st)
	if mismatches > 0 {
		return fmt.Errorf("%d/%d jobs exceed F1 tolerance %g vs the offline path", mismatches, numJobs, tolerance)
	}
	fmt.Printf("all %d jobs match the offline NURD path within %g\n", numJobs, tolerance)
	return nil
}

// ingest feeds one worker's merged stream, throttled to rate events/s when
// rate > 0.
func ingest(sv *serve.Server, feed []wire.Event, rate float64) error {
	const chunk = 256
	start := time.Now()
	for i, e := range feed {
		if err := sv.Ingest(e); err != nil {
			return err
		}
		if rate > 0 && i%chunk == chunk-1 {
			ahead := time.Duration(float64(i+1)/rate*float64(time.Second)) - time.Since(start)
			if ahead > 0 {
				time.Sleep(ahead)
			}
		}
	}
	return nil
}
