// Serving walkthrough: run the online straggler-prediction service on a
// handful of concurrent jobs — register jobs, stream their task lifecycle
// events from separate goroutines, query running tasks mid-flight, read the
// per-job reports and server-wide stats at the end, snapshot the server (the
// compacted base of its write-ahead log) and restore it into a fresh process
// image that answers the same queries identically — then run the same jobs
// with warm refits, kill the server halfway, and recover it with zero
// acknowledged events lost — and
// finally load-test the HTTP front end with named workload scenarios through the
// open-loop percentile harness, including a hostile malformed-frame
// injection run.
//
// The serving stack is four one-way layers, each its own package:
//
//	internal/wire       frame codec (dumps, WAL segments, checkpoint bases)
//	internal/wal        write-ahead log: segments, compaction, recovery
//	internal/serve      the node core: sharded registry, refits, recovery,
//	                    and Feed, the one loop every wire stream goes through
//	internal/servehttp  HTTP front: POST /ingest is Feed plus the reply
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/servehttp"
	"repro/internal/simulator"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	// 1. A small burst of Google-like jobs, as if several users submitted
	// work to the same cluster.
	const numJobs = 4
	gen, err := trace.NewGenerator(trace.DefaultGoogleConfig(7))
	if err != nil {
		log.Fatal(err)
	}
	jobs := gen.Jobs(numJobs)
	sims := make([]*simulator.Sim, numJobs)
	for i, j := range jobs {
		if sims[i], err = simulator.New(j, simulator.DefaultConfig()); err != nil {
			log.Fatal(err)
		}
	}

	// 2. One server for all of them. The default configuration shards jobs
	// across the available cores and builds each job a NURD predictor from
	// its spec (seed, schema-dependent confirmation rule). It logs every
	// accepted mutation to a write-ahead log in a scratch directory, which
	// is what step 6 snapshots.
	logDir, err := os.MkdirTemp("", "nurd-serving-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(logDir)
	sv, svLog, _, err := serve.Recover(logDir, serve.DefaultConfig(), wal.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer svLog.Close()
	for i := range jobs {
		spec := serve.SpecFor(sims[i], uint64(i)) // control-plane metadata + predictor seed
		if err := sv.StartJob(spec, nil); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("job %d: %d tasks, tau_stra=%.1f, horizon=%.1f, %d checkpoints\n",
			spec.JobID, spec.NumTasks, spec.TauStra, spec.Horizon, spec.Checkpoints)
	}

	// 3. Stream every job concurrently: starts, per-checkpoint feature
	// heartbeats, finishes, in time order — the event shape a monitoring
	// pipeline delivers.
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, e := range serve.JobEvents(jobs[i], sims[i]) {
				if err := sv.Ingest(e); err != nil {
					log.Fatal(err)
				}
			}
		}(i)
	}

	// 4. While streams are in flight, poll one job's first few tasks —
	// queries are answered from the job's live model at any time.
	time.Sleep(20 * time.Millisecond)
	if vs, err := sv.Query(jobs[0].ID, []int{0, 1, 2}); err == nil {
		for _, v := range vs {
			state := "pending"
			switch {
			case v.Flagged:
				state = fmt.Sprintf("terminated@cp%d", v.FlaggedAt)
			case v.Finished:
				state = "finished"
			case v.Known:
				state = "running"
			}
			extra := ""
			if v.Prediction != nil {
				extra = fmt.Sprintf(" adjusted=%.1f w=%.2f", v.Prediction.Adjusted, v.Prediction.Weight)
			}
			fmt.Printf("  mid-flight query job %d task %d: %s straggler=%v%s\n",
				jobs[0].ID, v.TaskID, state, v.Straggler, extra)
		}
	}
	wg.Wait()

	// 5. End-of-job accounting: the terminated set per job, scored against
	// ground truth exactly like the offline protocol.
	for i := range jobs {
		rep, err := sv.Report(jobs[i].ID)
		if err != nil {
			log.Fatal(err)
		}
		c := rep.Confusion(sims[i].Truth())
		flagged := make([]int, 0, len(rep.PredictedAt))
		for id := range rep.PredictedAt {
			flagged = append(flagged, id)
		}
		sort.Ints(flagged)
		fmt.Printf("job %d: F1=%.2f (%s), %d refits (mean %s), flagged %v\n",
			jobs[i].ID, c.F1(), c, rep.Refits, rep.RefitMean().Round(time.Millisecond), flagged)
	}
	fmt.Println("server:", sv.Stats())

	// 6. Durability: snapshot the whole server to a byte stream (a file, an
	// object store, GET /snapshot over the HTTP front end) and restore it
	// into a brand-new server. A snapshot is the log compacted into one wire
	// dump — every live job's spec and accepted events — and restoring
	// replays it, refitting every model at the boundary it was fit at, so
	// the restored server answers queries exactly as the original does.
	var snap bytes.Buffer
	if err := sv.Snapshot(&snap); err != nil {
		log.Fatal(err)
	}
	restored, err := serve.RestoreServer(bytes.NewReader(snap.Bytes()), serve.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	probe := []int{0, 1, 2, 3, 4}
	want, err := sv.Query(jobs[0].ID, probe)
	if err != nil {
		log.Fatal(err)
	}
	got, err := restored.Query(jobs[0].ID, probe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d bytes; restored verdicts identical: %v\n",
		snap.Len(), reflect.DeepEqual(want, got))

	// 7. Kill and recover — this time with warm-started refits. Every
	// accepted mutation is durable before it is acknowledged. The log is one
	// stream of segments (log-<stamp>.seg), each holding the same spec and
	// event frames a dump does. RefitMode: RefitWarm makes every job's checkpoint refit extend
	// the previous checkpoint's ensemble instead of retraining from scratch
	// (~2.3x cheaper per refit); the mode is stamped into each job's spec,
	// so it rides the WAL into recovery — the revived server
	// rebuilds the same warm-refit chain without being told.
	//
	// Run the same jobs on a server backed by a WAL directory, "kill" it
	// halfway through the streams (drop the process image; the directory is
	// all that survives), then point Recover at the directory: it replays
	// the newest checkpoint base, then the log past it, and reports exactly
	// how many mutations the dead server had acknowledged, so the feed
	// resumes without losing or double-applying a single event.
	walDir, err := os.MkdirTemp("", "nurd-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)
	warmCfg := serve.DefaultConfig()
	warmCfg.RefitMode = wire.RefitWarm
	durable, wlog, _, err := serve.Recover(walDir, warmCfg, wal.Options{
		SyncEvery: 2 * time.Millisecond, // group-commit fsync window
		// Checkpoints are automatic: a background policy compacts the log
		// into a new base and retires covered segments on a wall-clock
		// period and/or after so many appended bytes — no operator has to
		// remember to call CheckpointWAL.
		CheckpointEvery: 200 * time.Millisecond,
		CheckpointBytes: 256 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	_ = wlog // deliberately never closed — the "crash" below abandons it
	var feed []wire.Event
	for i := range jobs {
		if err := durable.StartJob(serve.SpecFor(sims[i], uint64(i)), nil); err != nil {
			log.Fatal(err)
		}
		feed = append(feed, serve.JobEvents(jobs[i], sims[i])...)
	}
	acked := len(jobs) // the registrations above are mutations too
	half := len(feed) / 2
	for _, e := range feed[:half] {
		if err := durable.Ingest(e); err != nil {
			log.Fatal(err)
		}
		acked++
	}
	// An explicit checkpoint still works (it serializes with the automatic
	// policy); here it guarantees the crash below lands after at least one
	// base, so recovery replays that base and then only the tail.
	if _, _, err := durable.CheckpointWAL(); err != nil {
		log.Fatal(err)
	}
	// The dying server's model state, as the operator would see it: each
	// job's generation counts the refits applied and published to queries
	// (refits run on background workers and land at boundary crossings, so
	// a generation can lag the last crossed checkpoint by one — that lag,
	// and the warm/scratch fit split, must survive the crash intact).
	type genState struct {
		gen, pending int
		warm         uint64
	}
	preCrash := map[uint64]genState{}
	midVerdicts := map[uint64][]serve.TaskVerdict{}
	for i := range jobs {
		rep, err := durable.Report(jobs[i].ID)
		if err != nil {
			log.Fatal(err)
		}
		preCrash[jobs[i].ID] = genState{rep.Generation, rep.PendingRefits, rep.WarmFits}
		if midVerdicts[jobs[i].ID], err = durable.Query(jobs[i].ID, []int{0, 1, 2, 3, 4}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pre-crash  job %d: generation=%d pending=%d warm_fits=%d\n",
			jobs[i].ID, rep.Generation, rep.PendingRefits, rep.WarmFits)
	}
	durable = nil // kill -9: no graceful close, no final sync

	// Recovery reads the mode from the recorded specs — the config here
	// deliberately says nothing about warm refits.
	revived, wal2, rst, err := serve.Recover(walDir, serve.DefaultConfig(), wal.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer wal2.Close()
	fmt.Printf("recovered: %v\n", rst)
	if int(rst.NextLSN)-1 != acked {
		log.Fatalf("recovered %d mutations, acknowledged %d", rst.NextLSN-1, acked)
	}
	for i := range jobs {
		rep, err := revived.Report(jobs[i].ID)
		if err != nil {
			log.Fatal(err)
		}
		pre := preCrash[jobs[i].ID]
		vs, err := revived.Query(jobs[i].ID, []int{0, 1, 2, 3, 4})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recovered  job %d: generation=%d pending=%d warm_fits=%d (intact: %v; mid-crash verdicts identical: %v)\n",
			jobs[i].ID, rep.Generation, rep.PendingRefits, rep.WarmFits,
			rep.Generation == pre.gen && rep.PendingRefits == pre.pending && rep.WarmFits == pre.warm,
			reflect.DeepEqual(vs, midVerdicts[jobs[i].ID]))
	}
	// Resume the feed where the dead server stopped and finish the jobs:
	// the remaining checkpoints keep extending the recovered ensembles.
	for _, e := range feed[half:] {
		if err := revived.Ingest(e); err != nil {
			log.Fatal(err)
		}
	}
	for i := range jobs {
		rep, err := revived.Report(jobs[i].ID)
		if err != nil {
			log.Fatal(err)
		}
		c := rep.Confusion(sims[i].Truth())
		fmt.Printf("kill-and-recover job %d: F1=%.2f, generation=%d (%d warm / %d scratch fits)\n",
			jobs[i].ID, c.F1(), rep.Generation, rep.WarmFits, rep.ScratchFits)
	}
	fmt.Printf("kill-and-recover: %d/%d events re-fed under warm refits; server: %s\n",
		len(feed)-half, len(feed), revived.Stats())

	// 8. Load-test the front end with a named workload scenario. A scenario
	// spec (internal/workload, or a JSON file under examples/scenarios/) is
	// fully seeded: the same name + seed reproduces the exact traffic on any
	// machine. The driver is OPEN LOOP — every request's due time is fixed
	// before the clock starts, late sends are recorded as queue delay instead
	// of being rescheduled — so the percentiles below include every
	// millisecond a real client would have waited. The same run via the CLI,
	// against a server of its own:
	//
	//	nurdserve -listen 127.0.0.1:8080 &
	//	nurdload -scenario smoke -speedup 4 -url http://127.0.0.1:8080
	ws, _ := workload.Builtin("smoke")
	wl, err := workload.Synthesize(ws)
	if err != nil {
		log.Fatal(err)
	}
	front := httptest.NewServer(servehttp.NewHandler(serve.NewServer(serve.DefaultConfig())))
	defer front.Close()
	rep, err := workload.Run(wl, &workload.HTTPTarget{Client: front.Client(), BaseURL: front.URL}, workload.Options{Speedup: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("open-loop %s: offered %.0f ev/s, achieved %.0f ev/s (gap %.2f%%); p50=%.2fms p99=%.2fms queue-delay p99=%.2fms\n",
		rep.Scenario, rep.OfferedRate, rep.AchievedRate, 100*rep.RateGap,
		rep.Latency.P50, rep.Latency.P99, rep.QueueDelay.P99)

	// And a hostile-injection run: the "hostile" scenario overlays corrupted
	// copies of real frames onto the clean traffic (plus Pareto job sizes and
	// a high far-straggler mix). The front end must bounce every injected
	// frame as a clean 400 while acknowledging all clean events around them.
	hws, _ := workload.Builtin("hostile")
	hws.Duration = 6 // a slice is enough for the walkthrough
	hwl, err := workload.Synthesize(hws)
	if err != nil {
		log.Fatal(err)
	}
	hostileFront := httptest.NewServer(servehttp.NewHandler(serve.NewServer(serve.DefaultConfig())))
	defer hostileFront.Close()
	hrep, err := workload.Run(hwl, &workload.HTTPTarget{Client: hostileFront.Client(), BaseURL: hostileFront.URL}, workload.Options{Speedup: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hostile run: %d injected frames -> %d rejected as 400 (all: %v); %d/%d clean events acked, unexpected errors: %d\n",
		hrep.Malformed, hrep.BadFrameRejects, hrep.BadFrameRejects == hrep.Malformed,
		hrep.AckedEvents, hrep.Events, hrep.Errors)

	// 9. Overload and recover. A deliberately starved durable server — a
	// tight per-client rate limit plus degraded-query mode — takes the
	// multi-lane "overload" scenario: heartbeats over budget are SHED
	// (coalesced into the next accepted observation; finishes always get
	// through, they carry labels), whole-request rejections come back as
	// 429s with load-aware Retry-After hints the driver honors. The crucial
	// durability property: a shed event leaves NO trace — not applied, not
	// counted, not logged — so the WAL records exactly the accepted stream,
	// and a crash-recovery of the shedding server reproduces its state as
	// faithfully as the healthy recovery in step 7.
	ows, _ := workload.Builtin("overload")
	ows.Duration = 4 // a slice is enough for the walkthrough
	owl, err := workload.Synthesize(ows)
	if err != nil {
		log.Fatal(err)
	}
	owalDir, err := os.MkdirTemp("", "nurd-overload-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(owalDir)
	ocfg := serve.DefaultConfig()
	ocfg.ClientRate = 300 // frames/s per client — far below what the lanes offer
	ocfg.DegradedAfter = 2 * time.Millisecond
	osv, owal, _, err := serve.Recover(owalDir, ocfg, wal.Options{SyncEvery: 2 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	_ = owal // abandoned below — the crash takes the process image with it
	overFront := httptest.NewServer(servehttp.NewHandler(osv))
	orep, err := workload.Run(owl, &workload.HTTPTarget{Client: overFront.Client(), BaseURL: overFront.URL},
		workload.Options{Speedup: 6, Retry429: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overload run: shed %d heartbeats, throttled %d, lost %d; %d/%d events acked; queries %d (stale %d) p99=%.2fms\n",
		orep.ShedEvents, orep.ThrottledEvents, orep.LostEvents, orep.AckedEvents, orep.Events,
		orep.Queries, orep.StaleQueries, orep.QueryLatency.P99)
	probeTasks := []int{0, 1, 2, 3, 4}
	preShed := map[uint64][]serve.TaskVerdict{}
	for id := range owl.Truth {
		if preShed[id], err = osv.Query(id, probeTasks); err != nil {
			preShed[id] = nil // throttled registration: the job never existed
		}
	}
	overFront.Close()
	osv = nil // kill -9, again: the WAL directory is all that survives

	shedRevived, wal3, orst, err := serve.Recover(owalDir, serve.DefaultConfig(), wal.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer wal3.Close()
	identical := 0
	for id, want := range preShed {
		if want == nil {
			continue
		}
		got, err := shedRevived.Query(id, probeTasks)
		if err != nil {
			log.Fatal(err)
		}
		// The dying server may have answered a probe in degraded mode; the
		// recovered one answers fresh. Staleness is a property of the path,
		// not the state — strip the flags before comparing.
		for i := range want {
			want[i].Stale, want[i].AsOfCheckpoint = false, 0
			got[i].Stale, got[i].AsOfCheckpoint = false, 0
		}
		if reflect.DeepEqual(want, got) {
			identical++
		}
	}
	fmt.Printf("overload-and-recover: %v; shed left no WAL trace — %d/%d jobs' verdicts identical after recovery\n",
		orst, identical, len(preShed))
}
