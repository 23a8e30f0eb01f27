// Package repro benchmarks regenerate every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark runs the
// same pipeline as cmd/nurdbench at a bench-friendly scale and reports the
// headline quantity of that experiment as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both exercises the full system and prints the reproduced results. Figures
// that derive from the accuracy pass (4-9) share one cached evaluation per
// trace; Table 3 and Figures 2-3 time the full 23-method replay itself.
package repro

import (
	"bytes"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/gbt"
	"repro/internal/nurd"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/simulator"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

const (
	benchSeed = 42
	benchJobs = 3
)

// cachedEval memoizes one full accuracy pass per trace for the scheduling
// figures, which only re-derive JCT numbers from its plans.
var (
	evalOnce    sync.Once
	googleEval  *experiments.Evaluation
	alibabaEval *experiments.Evaluation
	evalErr     error
)

func sharedEvals(b *testing.B) (*experiments.Evaluation, *experiments.Evaluation) {
	b.Helper()
	evalOnce.Do(func() {
		facs := predictor.AllFactories()
		googleEval, evalErr = experiments.Run(
			experiments.GoogleSpec(benchJobs, benchSeed), facs, simulator.DefaultConfig(), benchSeed)
		if evalErr != nil {
			return
		}
		alibabaEval, evalErr = experiments.Run(
			experiments.AlibabaSpec(benchJobs, benchSeed), facs, simulator.DefaultConfig(), benchSeed)
	})
	if evalErr != nil {
		b.Fatal(evalErr)
	}
	return googleEval, alibabaEval
}

func nurdF1(ev *experiments.Evaluation) float64 {
	for _, m := range ev.Methods {
		if m.Name == "NURD" {
			return m.Avg().F1
		}
	}
	return 0
}

// BenchmarkFig1 regenerates the latency-distribution illustration (two
// profiles, histogram + threshold position).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(trace.ModeGoogle, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 runs the full Table 3 pipeline: all 23 methods replayed
// over Google-like and Alibaba-like jobs. Reports NURD's averaged F1 on each
// trace.
func BenchmarkTable3(b *testing.B) {
	facs := predictor.AllFactories()
	var g, a *experiments.Evaluation
	var err error
	for i := 0; i < b.N; i++ {
		g, err = experiments.Run(experiments.GoogleSpec(benchJobs, benchSeed), facs,
			simulator.DefaultConfig(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		a, err = experiments.Run(experiments.AlibabaSpec(benchJobs, benchSeed), facs,
			simulator.DefaultConfig(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(nurdF1(g), "nurd-f1-google")
	b.ReportMetric(nurdF1(a), "nurd-f1-alibaba")
}

// BenchmarkFig2 regenerates the Google F1-vs-normalized-time series (the
// accuracy pass plus the timeline aggregation). Reports NURD's final-time F1.
func BenchmarkFig2(b *testing.B) {
	facs := predictor.AllFactories()
	var ev *experiments.Evaluation
	var err error
	for i := 0; i < b.N; i++ {
		ev, err = experiments.Run(experiments.GoogleSpec(benchJobs, benchSeed), facs,
			simulator.DefaultConfig(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.TimelineSeries(ev)
	}
	for _, m := range ev.Methods {
		if m.Name == "NURD" {
			b.ReportMetric(m.AvgF1At(10), "nurd-f1-final")
		}
	}
}

// BenchmarkFig3 is Figure 2's Alibaba counterpart.
func BenchmarkFig3(b *testing.B) {
	facs := predictor.AllFactories()
	var ev *experiments.Evaluation
	var err error
	for i := 0; i < b.N; i++ {
		ev, err = experiments.Run(experiments.AlibabaSpec(benchJobs, benchSeed), facs,
			simulator.DefaultConfig(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.TimelineSeries(ev)
	}
	for _, m := range ev.Methods {
		if m.Name == "NURD" {
			b.ReportMetric(m.AvgF1At(10), "nurd-f1-final")
		}
	}
}

// benchReduction measures one JCT-reduction figure from the cached
// evaluation and reports NURD's reduction percentage.
func benchReduction(b *testing.B, ev *experiments.Evaluation, machines int) {
	var names []string
	var red []float64
	var err error
	for i := 0; i < b.N; i++ {
		names, red, err = experiments.Reduction(ev, machines)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, n := range names {
		if n == "NURD" {
			b.ReportMetric(red[i], "nurd-reduction-pct")
		}
	}
}

// BenchmarkFig4 regenerates the unlimited-machine JCT reductions (Google).
func BenchmarkFig4(b *testing.B) {
	g, _ := sharedEvals(b)
	b.ResetTimer()
	benchReduction(b, g, 0)
}

// BenchmarkFig5 regenerates the unlimited-machine JCT reductions (Alibaba).
func BenchmarkFig5(b *testing.B) {
	_, a := sharedEvals(b)
	b.ResetTimer()
	benchReduction(b, a, 0)
}

var sweepCounts = []int{100, 300, 500, 700, 900}

// BenchmarkFig6 regenerates the machine-count sweep (Google).
func BenchmarkFig6(b *testing.B) {
	g, _ := sharedEvals(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.MachineSweep(g, sweepCounts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates the machine-count sweep (Alibaba).
func BenchmarkFig7(b *testing.B) {
	_, a := sharedEvals(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.MachineSweep(a, sweepCounts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates the over-machines average (Google); reports
// NURD's averaged reduction.
func BenchmarkFig8(b *testing.B) {
	g, _ := sharedEvals(b)
	b.ResetTimer()
	var names []string
	var avg []float64
	for i := 0; i < b.N; i++ {
		var sweep [][]float64
		var err error
		names, sweep, err = experiments.MachineSweep(g, sweepCounts)
		if err != nil {
			b.Fatal(err)
		}
		avg = experiments.AverageOverMachines(sweep)
	}
	for i, n := range names {
		if n == "NURD" {
			b.ReportMetric(avg[i], "nurd-avg-reduction-pct")
		}
	}
}

// BenchmarkFig9 regenerates the over-machines average (Alibaba).
func BenchmarkFig9(b *testing.B) {
	_, a := sharedEvals(b)
	b.ResetTimer()
	var names []string
	var avg []float64
	for i := 0; i < b.N; i++ {
		var sweep [][]float64
		var err error
		names, sweep, err = experiments.MachineSweep(a, sweepCounts)
		if err != nil {
			b.Fatal(err)
		}
		avg = experiments.AverageOverMachines(sweep)
	}
	for i, n := range names {
		if n == "NURD" {
			b.ReportMetric(avg[i], "nurd-avg-reduction-pct")
		}
	}
}

// --- Component micro-benchmarks (ablation-level costs) ---

func benchJob(b *testing.B) *trace.Job {
	b.Helper()
	cfg := trace.DefaultGoogleConfig(benchSeed)
	cfg.MinTasks, cfg.MaxTasks = 300, 300
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return gen.Next()
}

// BenchmarkTraceGen measures synthetic job generation throughput.
func BenchmarkTraceGen(b *testing.B) {
	cfg := trace.DefaultGoogleConfig(benchSeed)
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	tasks := 0
	for i := 0; i < b.N; i++ {
		tasks += gen.Next().NumTasks()
	}
	b.ReportMetric(float64(tasks)/float64(b.N), "tasks/job")
}

// BenchmarkNURDCheckpoint measures one NURD checkpoint update+predict cycle
// (the per-checkpoint online cost of Algorithm 1).
func BenchmarkNURDCheckpoint(b *testing.B) {
	job := benchJob(b)
	sim, err := simulator.New(job, simulator.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cp := sim.At(3, nil)
	if len(cp.FinishedX) == 0 || len(cp.RunningX) == 0 {
		b.Skip("degenerate checkpoint")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := nurd.New(nurd.DefaultConfig())
		if err := m.Init(cp.FinishedX, cp.RunningX); err != nil {
			b.Fatal(err)
		}
		if err := m.Update(cp.FinishedX, cp.FinishedY, cp.RunningX); err != nil {
			b.Fatal(err)
		}
		for _, x := range cp.RunningX {
			if _, err := m.Predict(x); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGBTFit measures the latency-model refit, the dominant cost inside
// NURD and GBTR.
func BenchmarkGBTFit(b *testing.B) {
	rng := stats.NewRNG(benchSeed)
	n, d := 500, 15
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.Normal(0, 1)
		}
		y[i] = X[i][0]*3 + X[i][1] + rng.Normal(0, 0.2)
	}
	cfg := gbt.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gbt.FitRegressor(X, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRefit measures the per-refit latency of NURD's checkpoint refit over
// a full job's gated checkpoint sequence (the hot path the serving layer's
// async pipeline runs on its workers): at each checkpoint the models are
// refitted on the accumulated finished set, from scratch or warm-started
// from the previous checkpoint's ensemble. Reports ms/refit so the warm vs
// scratch comparison (BENCH_serve_refit.json; ratio-gated in CI) reads
// directly.
func benchRefit(b *testing.B, cfg nurd.Config) {
	job := benchJob(b)
	sim, err := simulator.New(job, simulator.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	// The fixed view sequence both strategies fit: every checkpoint past the
	// warm gate, no terminations (identical data regardless of verdicts).
	var views []*simulator.Checkpoint
	warm := simulator.WarmCount(job.NumTasks(), sim.Cfg.WarmFrac)
	for k := 1; k <= sim.Cfg.Checkpoints; k++ {
		cp := sim.At(k, nil)
		if len(cp.FinishedIDs) >= warm && len(cp.RunningIDs) > 0 {
			views = append(views, cp)
		}
	}
	if len(views) < 3 {
		b.Skip("degenerate job: too few gated checkpoints")
	}
	cfg.Seed = benchSeed
	b.ResetTimer()
	refits := 0
	var warmFits uint64
	for i := 0; i < b.N; i++ {
		m := nurd.New(cfg)
		if err := m.Init(views[0].FinishedX, views[0].RunningX); err != nil {
			b.Fatal(err)
		}
		for _, cp := range views {
			if err := m.Refit(cp.FinishedX, cp.FinishedY, cp.RunningX); err != nil {
				b.Fatal(err)
			}
			refits++
		}
		warmFits, _ = m.RefitCounts()
	}
	// CI gates warm against scratch ms/refit: a warm configuration that fell
	// back to scratch fits, or a scratch one that warm-started, would make the
	// ratio meaningless.
	if (cfg.WarmRounds > 0) != (warmFits > 0) {
		b.Fatalf("WarmRounds %d, but the last sequence warm-started %d of %d refits", cfg.WarmRounds, warmFits, len(views))
	}
	// From nanoseconds: whole milliseconds would quantise a 3x run's ~50 ms
	// total by up to 2 %, and the gated ratio with it.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(refits), "ms/refit")
}

// BenchmarkRefitScratch is the pre-pipeline refit cost: every checkpoint
// retrains the GBT from scratch (the paper's Table 3 configuration).
func BenchmarkRefitScratch(b *testing.B) { benchRefit(b, nurd.DefaultConfig()) }

// BenchmarkRefitWarm is the warm-started refit: each checkpoint extends the
// previous ensemble by nurd.DefaultWarmRounds trees instead of refitting
// gbt.DefaultConfig().NumTrees from zero.
func BenchmarkRefitWarm(b *testing.B) { benchRefit(b, nurd.DefaultWarmConfig()) }

// BenchmarkFullReplayNURD measures a complete 10-checkpoint online replay of
// one 300-task job through NURD.
func BenchmarkFullReplayNURD(b *testing.B) {
	job := benchJob(b)
	sim, err := simulator.New(job, simulator.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var f1 float64
	for i := 0; i < b.N; i++ {
		res, err := simulator.Evaluate(sim, predictor.NewNURD())
		if err != nil {
			b.Fatal(err)
		}
		f1 = res.Final.F1()
	}
	b.ReportMetric(f1, "f1")
}

// BenchmarkServeThroughput measures the online serving path end to end:
// several jobs' monitoring streams ingested concurrently into a
// serve.Server running per-job NURD models, the heavy-traffic scenario of
// cmd/nurdserve. Reports sustained events/s and the mean refit latency.
// benchServeConfig pins the serving benchmarks to 8 shards (and, under a
// WAL, 8 segment streams) so the WAL-on/off comparison in
// BENCH_serve_wal.json measures the sharded durability path the roadmap
// targets, independent of the host's core count.
func benchServeConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Shards = 8
	return cfg
}

// benchBodies encodes each job's event stream as one ingest body, returning
// the bodies and their total event count.
func benchBodies(b *testing.B, jobs []*trace.Job, sims []*simulator.Sim) ([][]byte, int) {
	bodies := make([][]byte, len(jobs))
	total := 0
	for i, j := range jobs {
		events := serve.JobEvents(j, sims[i])
		var body bytes.Buffer
		if err := wire.WriteDump(&body, nil, events); err != nil {
			b.Fatal(err)
		}
		bodies[i], total = body.Bytes(), total+len(events)
	}
	return bodies, total
}

func BenchmarkServeThroughput(b *testing.B) {
	const numJobs = 4
	jobs, sims := servetest.Jobs(b, trace.DefaultGoogleConfig(benchSeed), numJobs)
	bodies, totalEvents := benchBodies(b, jobs, sims)
	b.ResetTimer()
	var lastServer *serve.Server
	for i := 0; i < b.N; i++ {
		sv := serve.NewServer(benchServeConfig())
		var wg sync.WaitGroup
		for ji := range jobs {
			if err := sv.StartJob(serve.SpecFor(sims[ji], benchSeed+uint64(ji)), nil); err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func(ji int) {
				defer wg.Done()
				if _, err := sv.Feed(wire.NewReader(bytes.NewReader(bodies[ji])), nil); err != nil {
					b.Error(err)
				}
			}(ji)
		}
		wg.Wait()
		lastServer = sv
	}
	b.StopTimer()
	b.ReportMetric(float64(totalEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(lastServer.Stats().RefitMean().Microseconds())/1e3, "refit-mean-ms")
}

// BenchmarkWireCodec measures the serving wire format end to end: one
// job's full monitoring stream encoded to frames and decoded back. Reports
// sustained events/s through encode+decode and the encoded bytes per event.
func BenchmarkWireCodec(b *testing.B) {
	job := benchJob(b)
	sim, err := simulator.New(job, simulator.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	spec := serve.SpecFor(sim, benchSeed)
	events := serve.JobEvents(job, sim)
	var dump bytes.Buffer
	if err := wire.WriteDump(&dump, []wire.JobSpec{spec}, events); err != nil {
		b.Fatal(err)
	}
	enc := dump.Bytes()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(len(enc))
		if err := wire.WriteDump(&buf, []wire.JobSpec{spec}, events); err != nil {
			b.Fatal(err)
		}
		wr := wire.NewReader(bytes.NewReader(buf.Bytes()))
		var ev wire.Event
		n := 0
		for {
			_, err := wr.NextInto(&ev)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			if ev.Features != nil {
				wire.PutObservation(ev.Features)
			}
			ev = wire.Event{}
			n++
		}
		if n != len(events)+1 {
			b.Fatalf("decoded %d elements, want %d", n, len(events)+1)
		}
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(len(enc))/float64(len(events)), "bytes/event")
}

// BenchmarkSnapshotRestore measures the durability round-trip: snapshotting
// a WAL-backed server carrying several streamed jobs (a checkpoint plus a
// copy of its base) and restoring it (which replays the stream, refitting
// every per-job model). Reports the snapshot size.
func BenchmarkSnapshotRestore(b *testing.B) {
	const numJobs = 4
	jobs, sims := servetest.Jobs(b, trace.DefaultGoogleConfig(benchSeed), numJobs)
	sv, wlog, _, err := serve.Recover(b.TempDir(), serve.DefaultConfig(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer wlog.Close()
	for i, j := range jobs {
		if err := sv.StartJob(serve.SpecFor(sims[i], benchSeed+uint64(i)), nil); err != nil {
			b.Fatal(err)
		}
		if err := servetest.IngestBatch(sv, serve.JobEvents(j, sims[i])); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var snapLen int
	for i := 0; i < b.N; i++ {
		var snap bytes.Buffer
		if err := sv.Snapshot(&snap); err != nil {
			b.Fatal(err)
		}
		snapLen = snap.Len()
		restored, err := serve.RestoreServer(bytes.NewReader(snap.Bytes()), serve.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(restored.JobIDs()) != numJobs {
			b.Fatalf("restored %d jobs, want %d", len(restored.JobIDs()), numJobs)
		}
	}
	b.ReportMetric(float64(snapLen)/1024, "snapshot-KiB")
}

// BenchmarkServeThroughputWAL is BenchmarkServeThroughput with a write-ahead
// log under the server (group-commit fsync, the cmd/nurdserve -wal
// defaults): the same 4-job concurrent stream, every accepted event logged
// durably before acknowledgment. Comparing its events/s against the no-WAL
// baseline prices the durability guarantee; the acceptance bar for the WAL
// is staying within 25% of the baseline.
func BenchmarkServeThroughputWAL(b *testing.B) {
	const numJobs = 4
	jobs, sims := servetest.Jobs(b, trace.DefaultGoogleConfig(benchSeed), numJobs)
	bodies, totalEvents := benchBodies(b, jobs, sims)
	b.ResetTimer()
	var lastWAL wal.Stats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		sv, wlog, _, err := serve.Recover(dir, benchServeConfig(),
			wal.Options{SyncEvery: 2 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for ji := range jobs {
			if err := sv.StartJob(serve.SpecFor(sims[ji], benchSeed+uint64(ji)), nil); err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func(ji int) {
				defer wg.Done()
				if _, err := sv.Feed(wire.NewReader(bytes.NewReader(bodies[ji])), nil); err != nil {
					b.Error(err)
				}
			}(ji)
		}
		wg.Wait()
		if err := wlog.Close(); err != nil {
			b.Fatal(err)
		}
		lastWAL = *sv.Stats().WAL
	}
	b.StopTimer()
	b.ReportMetric(float64(totalEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(lastWAL.Bytes)/float64(lastWAL.Appends), "wal-bytes/event")
}

// BenchmarkWALRecovery measures point-in-time recovery against WAL length:
// a 4-job stream logged with no snapshot at all, rebuilt from the log alone
// (the worst case — a snapshot only shortens the replayed tail). Reports
// recovered events/s and the log size.
func BenchmarkWALRecovery(b *testing.B) {
	const numJobs = 4
	jobs, sims := servetest.Jobs(b, trace.DefaultGoogleConfig(benchSeed), numJobs)
	dir := b.TempDir()
	sv, wlog, _, err := serve.Recover(dir, benchServeConfig(),
		wal.Options{SyncEvery: 2 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	records := 0
	for i, j := range jobs {
		if err := sv.StartJob(serve.SpecFor(sims[i], benchSeed+uint64(i)), nil); err != nil {
			b.Fatal(err)
		}
		evs := serve.JobEvents(j, sims[i])
		if err := servetest.IngestBatch(sv, evs); err != nil {
			b.Fatal(err)
		}
		records += 1 + len(evs)
	}
	walBytes := float64(sv.Stats().WAL.Bytes)
	if err := wlog.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv2, wal2, rst, err := serve.Recover(dir, benchServeConfig(), wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if int(rst.NextLSN)-1 != records {
			b.Fatalf("recovered %d records, want %d", rst.NextLSN-1, records)
		}
		wal2.Close()
		_ = sv2
		b.StopTimer()
		// Recovery opens a fresh (empty) segment; drop it so the next
		// iteration replays an identical directory.
		ents, err := os.ReadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range ents {
			name := e.Name()
			if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") {
				if fi, err := e.Info(); err == nil && fi.Size() <= 32 {
					os.Remove(dir + "/" + name)
				}
			}
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "replayed-events/s")
	b.ReportMetric(walBytes/1024, "wal-KiB")
}

// BenchmarkSchedulerMitigated measures the event-driven mitigation scheduler
// on a 5000-task job with 500 machines.
func BenchmarkSchedulerMitigated(b *testing.B) {
	rng := stats.NewRNG(benchSeed)
	n := 5000
	lat := make([]float64, n)
	for i := range lat {
		lat[i] = rng.Exponential(0.1)
	}
	plan := make(map[int]float64)
	for i := 0; i < n/10; i++ {
		plan[rng.Intn(n)] = rng.Uniform(1, 5)
	}
	pool := []float64{5, 8, 10, 12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Mitigated(lat, plan, pool, sched.Config{Machines: 500, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
