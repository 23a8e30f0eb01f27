package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/gbt"
	"repro/internal/nurd"
	"repro/internal/serve"
	"repro/internal/servehttp"
	"repro/internal/simulator"
	"repro/internal/tree"
	"repro/internal/wal"
	"repro/internal/wire"
)

// baselinePasses is how many untraced passes the traced pass is compared
// against.
const baselinePasses = 3

// stallThreshold separates an Ingest call that applied an event from one
// that waited at a checkpoint boundary for a fit.
const stallThreshold = 100 * time.Microsecond

// tracedRun produces the per-layer metrics: a few untraced passes as the
// baseline, one traced pass, then replays of the captured inputs straight
// into each layer's public functions.
func tracedRun(r *runner, out string, res *result) error {
	m := res.Metrics
	var wall, perSec, allocs, allocBytes, gcs []float64
	for i := 0; i < baselinePasses; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := r.pass(nil)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		res.Attempted += p.ops
		res.Failed += p.failed
		w := total(p.ingest).wall
		wall = append(wall, float64(w))
		perSec = append(perSec, float64(p.count)/w.Seconds())
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(p.count))
		allocBytes = append(allocBytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(p.count))
		gcs = append(gcs, float64(after.NumGC-before.NumGC))
	}
	m["serve.single_feeder_events_per_s"] = metric{median(perSec), "1/s"}
	m["proc.allocs_per_event"] = metric{median(allocs), "count"}
	m["proc.alloc_bytes_per_event"] = metric{median(allocBytes), "bytes"}
	m["proc.gc_cycles_per_pass"] = metric{median(gcs), "count"}

	runtime.GC()
	tr := newTracer()
	p, err := r.pass(tr)
	if err != nil {
		return err
	}
	res.Attempted += p.ops
	res.Failed += p.failed
	m["trace.overhead_share"] = metric{float64(total(p.ingest).wall)/median(wall) - 1, "share"}
	spanMetrics(tr, m)

	views := make([][]*simulator.Checkpoint, len(r.in.jobs))
	for i := range r.in.jobs {
		views[i] = tr.views[r.in.jobs[i].spec.JobID]
	}
	modelProbes(r.in, views, m)
	fs, err := servingProbes(r, m)
	if err != nil {
		return err
	}
	m["workload.synthesize_ms"] = metric{ms(float64(r.in.synthesize)), "ms"}

	m["proc.peak_rss_mib"] = metric{float64(rusage().Maxrss) / 1024, "MiB"} // Linux reports KiB
	path, err := tr.write(out, r.name, r.in.seed, fs)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d spans written to %s\n", r.name, len(tr.spans), path)
	return nil
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

// percentile returns the nearest-rank q-quantile of xs (xs is reordered).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[min(len(xs)-1, int(math.Ceil(q*float64(len(xs))))-1)]
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// spanMetrics derives the traced pass's own metrics from its spans.
func spanMetrics(tr *tracer, m map[string]metric) {
	timed := sum(tr.durations("A")) + sum(tr.durations("B")) + sum(tr.durations("R"))

	fits := tr.durations("predictor.Predict")
	m["predictor.refits_per_pass"] = metric{float64(len(fits)), "count"}
	m["predictor.refit_busy_share"] = metric{sum(fits) / timed, "share"}
	m["predictor.refit_ms_p50"] = metric{ms(percentile(fits, 0.50)), "ms"}
	m["predictor.refit_ms_p99"] = metric{ms(percentile(fits, 0.99)), "ms"}
	rows, views := 0, 0
	for _, vs := range tr.views {
		for _, v := range vs {
			rows += len(v.FinishedX) + len(v.RunningX)
			views++
		}
	}
	m["predictor.view_rows_mean"] = metric{float64(rows) / float64(max(views, 1)), "rows"}

	stalled := 0.0
	for _, d := range tr.durations("serve.Ingest") {
		if d > float64(stallThreshold) {
			stalled += d
		}
	}
	m["serve.ingest_stall_share"] = metric{stalled / timed, "share"}

	queries := tr.durations("servehttp.query")
	m["servehttp.query_p50_us"] = metric{us(percentile(queries, 0.50)), "us"}
	m["servehttp.query_p99_us"] = metric{us(percentile(queries, 0.99)), "us"}
	nbytes := 0
	for i := range tr.spans {
		nbytes += tr.spans[i].Bytes
	}
	m["servehttp.query_bytes_per_call"] = metric{float64(nbytes) / float64(max(len(queries), 1)), "bytes"}
}

// modelProbes replays the captured checkpoint views straight into the model
// layer, one job at a time in the order the predictor saw them, under the
// predictor's own gate.
func modelProbes(in *inputs, views [][]*simulator.Checkpoint, m map[string]metric) {
	var refit, fit, compile, extend, treeFit, gbtPredict, nurdPredict float64
	var nViews, nExtends, nRows int
	cfg := nurd.DefaultConfig()
	for i, vs := range views {
		cfg.Seed = in.jobs[i].spec.Seed
		gcfg := cfg.GBT
		gcfg.Seed = cfg.Seed
		var model *nurd.Model
		var warm *gbt.Model
		var scratch nurd.PredictScratch
		var out []float64
		for _, v := range vs {
			total := len(v.FinishedX) + len(v.RunningX)
			if len(v.FinishedX) == 0 || float64(len(v.FinishedX)) < cfg.MinFinishedFrac*float64(total) {
				continue // the predictor defers on this view too
			}
			if model == nil {
				model = nurd.New(cfg)
				if err := model.Init(v.FinishedX, v.RunningX); err != nil {
					panic(err)
				}
			}
			nViews++
			t0 := time.Now()
			if err := model.Refit(v.FinishedX, v.FinishedY, v.RunningX); err != nil {
				panic(err)
			}
			refit += since(t0)

			t0 = time.Now()
			g, err := gbt.FitRegressor(v.FinishedX, v.FinishedY, gcfg)
			if err != nil {
				panic(err)
			}
			fit += since(t0)

			t0 = time.Now()
			flat := g.Compile()
			compile += since(t0)

			t0 = time.Now()
			if _, err := tree.Fit(v.FinishedX, v.FinishedY, nil, gcfg.Tree); err != nil {
				panic(err)
			}
			treeFit += since(t0)

			if warm == nil {
				warm = g
			} else {
				t0 = time.Now()
				if warm, err = warm.Extend(v.FinishedX, v.FinishedY, nurd.DefaultWarmRounds, gcfg); err != nil {
					panic(err)
				}
				extend += since(t0)
				nExtends++
			}

			const reps = 32 // a view's running set is small; repeat so the timer sees it
			t0 = time.Now()
			for k := 0; k < reps; k++ {
				out = flat.PredictBatchInto(v.RunningX, out)
			}
			gbtPredict += since(t0)
			t0 = time.Now()
			for k := 0; k < reps; k++ {
				if _, err := model.PredictBatch(v.RunningX, &scratch); err != nil {
					panic(err)
				}
			}
			nurdPredict += since(t0)
			nRows += reps * len(v.RunningX)
		}
	}
	n := float64(max(nViews, 1))
	m["gbt.fit_ms_per_view"] = metric{ms(fit) / n, "ms"}
	m["gbt.compile_us"] = metric{us(compile) / n, "us"}
	m["tree.fit_us_per_tree"] = metric{us(treeFit) / n, "us"}
	m["gbt.extend_ms_per_view"] = metric{ms(extend) / float64(max(nExtends, 1)), "ms"}
	m["nurd.refit_self_ms"] = metric{ms(refit-fit-compile) / n, "ms"}
	m["gbt.predict_ns_per_row"] = metric{gbtPredict / float64(max(nRows, 1)), "ns"}
	m["nurd.predict_ns_per_row"] = metric{nurdPredict / float64(max(nRows, 1)), "ns"}
}

func since(t0 time.Time) float64 { return float64(time.Since(t0)) }

// servingProbes replays the run's stream straight into wire, wal, serve and
// servehttp, one layer at a time, with a predictor that costs nothing
// (elapsedRule) wherever the model layer is not the thing measured. It
// returns what the WAL asked of its filesystem during one wire pass.
func servingProbes(run *runner, m map[string]metric) (map[string]int64, error) {
	in := run.in
	events := float64(in.events)
	null := serve.DefaultConfig()
	null.NewPredictor = newElapsedRule
	opts := func(fs *countFS) wal.Options { return wal.Options{FS: fs, SyncEvery: walSyncEvery} }

	// wire: encode every event, then decode the whole stream.
	stream := wire.AppendHeader(nil)
	var err error
	for i := range in.jobs {
		if stream, err = wire.EncodeSpec(stream, in.jobs[i].spec); err != nil {
			return nil, err
		}
	}
	head := len(stream)
	stream = append(stream, make([]byte, 256*in.events)...)[:head] // room for every frame: time encoding, not growth
	runtime.GC()
	t0 := time.Now()
	for i := range in.jobs {
		for k := range in.jobs[i].events {
			if stream, err = wire.EncodeEvent(stream, in.jobs[i].events[k]); err != nil {
				return nil, err
			}
		}
	}
	m["wire.encode_ns_per_event"] = metric{since(t0) / events, "ns"}
	m["wire.bytes_per_event"] = metric{float64(len(stream)-head) / events, "bytes"}

	rd := wire.NewReader(bytes.NewReader(stream))
	var ev wire.Event
	runtime.GC()
	t0 = time.Now()
	for {
		_, err := rd.NextInto(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if ev.Pooled {
			wire.PutObservation(ev.Features)
			ev.Features, ev.Pooled = nil, false
		}
	}
	decode := since(t0) / events
	m["wire.decode_ns_per_event"] = metric{decode, "ns"}

	// serve: registration and event application with no model and no log.
	sv := serve.NewServer(null)
	var start, apply float64
	runtime.GC()
	for i := range in.jobs {
		j := &in.jobs[i]
		t0 = time.Now()
		if err := sv.StartJob(j.spec, nil); err != nil {
			return nil, err
		}
		start += since(t0)
		t0 = time.Now()
		for k := range j.events {
			if err := sv.Ingest(j.events[k]); err != nil {
				return nil, err
			}
		}
		apply += since(t0)
	}
	apply /= events
	m["serve.startjob_us"] = metric{us(start) / float64(len(in.jobs)), "us"}
	m["serve.apply_ns_per_event"] = metric{apply, "ns"}

	// servehttp: the wire pass's bodies through the handler, first with no
	// log (handler self time = total - decode - apply), then as the wire
	// workload runs them.
	units := run.units
	if run.name != wireWALIngest {
		if units, err = encodeReplicas(in, wireReplicas); err != nil {
			return nil, err
		}
	}
	r := &runner{name: wireWALIngest, in: in, cfg: null, units: units, walRoot: run.walRoot}
	var res passResult
	p := &phases{r: r, res: &res}
	c := &client{p: p}
	post := func(b *backend) (perEvent float64, batches []float64) {
		n := 0
		runtime.GC()
		t0 := time.Now()
		for i := range units {
			for _, bodies := range [][]body{units[i].a, units[i].b} {
				for k := range bodies {
					t1 := time.Now()
					c.post(b, &units[i], bodies[k:k+1])
					batches = append(batches, since(t1))
					n += bodies[k].events
				}
			}
		}
		return since(t0) / float64(n), batches
	}
	sv = serve.NewServer(null)
	noLog, _ := post(&backend{sv: sv, h: servehttp.NewHandler(sv)})
	m["servehttp.ingest_self_ns_per_event"] = metric{noLog - decode - apply, "ns"}

	b, err := r.openNew(nil)
	if err != nil {
		return nil, err
	}
	withLog, batches := post(b)
	if err := b.close(); err != nil {
		return nil, err
	}
	if n := p.failed; n != 0 {
		return nil, fmt.Errorf("servehttp probe: %d requests failed", n)
	}
	m["servehttp.ingest_batch_p50_ms"] = metric{ms(percentile(batches, 0.50)), "ms"}
	m["servehttp.ingest_batch_p99_ms"] = metric{ms(percentile(batches, 0.99)), "ms"}
	m["wal.fs_syncs_per_pass"] = metric{float64(b.fs.syncs.Load()), "count"}
	fsCounts := map[string]int64{"write_calls": b.fs.writes.Load(), "bytes": b.fs.written.Load(), "syncs": b.fs.syncs.Load()}

	// Once more with the fsyncs issued: what this sandbox's disk charges for
	// them, which no timed pass pays.
	r.fsync = true
	if b, err = r.openNew(nil); err != nil {
		return nil, err
	}
	post(b)
	if err := b.close(); err != nil {
		return nil, err
	}
	m["wal.fs_sync_ms_total"] = metric{ms(float64(b.fs.syncNS.Load())), "ms"}
	fsCounts["issued_sync_ns"] = b.fs.syncNS.Load()

	// wal: the same records appended straight to a fresh log.
	fs := &countFS{}
	dir, err := run.newDir()
	if err != nil {
		return nil, err
	}
	var rst wal.RecoveryStats
	noop := func(uint64, wire.FrameKind, []byte) error { return nil }
	scan, err := wal.ScanDir(fs, dir, 0, true, &rst, noop)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(dir, null.Shards, scan, opts(fs))
	if err != nil {
		return nil, err
	}
	runtime.GC()
	t0 = time.Now()
	for i := range in.jobs {
		j := &in.jobs[i]
		if _, err := log.AppendSpec(&j.spec); err != nil {
			return nil, err
		}
		for k := range j.events {
			if _, err := log.AppendEvent(&j.events[k]); err != nil {
				return nil, err
			}
		}
	}
	appendNS := since(t0) / events
	if err := log.Sync(); err != nil {
		return nil, err
	}
	records := float64(log.NextLSN() - 1)
	image, err := run.cloneDir(dir) // a crash here: every acknowledged byte, no Close
	if err != nil {
		return nil, err
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	m["wal.append_ns_per_event"] = metric{appendNS, "ns"}
	m["wal.bytes_per_event"] = metric{float64(fs.written.Load()) / records, "bytes"}
	m["wal.fs_write_calls_per_event"] = metric{float64(fs.writes.Load()) / records, "count"}
	// What is left of a wire-pass event once every layer's own cost is taken
	// out: the layers' interference with each other, reported, not hidden.
	m["trace.unaccounted_share"] = metric{1 - (noLog+appendNS)/withLog, "share"}

	// Recovery of that log: the scan alone, then scan plus replay.
	t0 = time.Now()
	if _, err := wal.ScanDir(wal.OSFS, image, 0, false, &rst, noop); err != nil {
		return nil, err
	}
	scanNS := since(t0)
	t0 = time.Now()
	_, log, _, err = serve.Recover(image, null, opts(&countFS{}))
	if err != nil {
		return nil, err
	}
	replay := since(t0) - scanNS
	if err := log.Close(); err != nil {
		return nil, err
	}
	m["wal.scan_ns_per_record"] = metric{scanNS / records, "ns"}
	m["serve.recover_replay_ns_per_record"] = metric{replay / records, "ns"}

	// The crash path's model-bound pieces, on a scratch NURD server stopped
	// at the cut: query, snapshot, checkpoint, restore.
	cfg := serve.DefaultConfig()
	if dir, err = run.newDir(); err != nil {
		return nil, err
	}
	sv, log, _, err = serve.Recover(dir, cfg, opts(&countFS{}))
	if err != nil {
		return nil, err
	}
	verdicts := 0
	for i := range in.jobs {
		j := &in.jobs[i]
		if err := sv.StartJob(j.spec, nil); err != nil {
			return nil, err
		}
		for k := 0; k < j.cut; k++ {
			if err := sv.Ingest(j.events[k]); err != nil {
				return nil, err
			}
		}
	}
	drain(sv)
	const reps = 16
	t0 = time.Now()
	for i := range in.jobs {
		ids := make([]int, in.jobs[i].spec.NumTasks)
		for k := range ids {
			ids[k] = k
		}
		for k := 0; k < reps; k++ {
			if _, err := sv.Query(in.jobs[i].spec.JobID, ids); err != nil {
				return nil, err
			}
			verdicts += len(ids)
		}
	}
	m["serve.query_ns_per_verdict"] = metric{since(t0) / float64(verdicts), "ns"}

	var snap bytes.Buffer
	t0 = time.Now()
	if err := sv.Snapshot(&snap); err != nil {
		return nil, err
	}
	m["serve.snapshot_ms"] = metric{ms(since(t0)), "ms"}
	m["serve.snapshot_bytes"] = metric{float64(snap.Len()), "bytes"}
	t0 = time.Now()
	if _, _, err := sv.CheckpointWAL(); err != nil {
		return nil, err
	}
	m["wal.checkpoint_ms"] = metric{ms(since(t0)), "ms"}
	if err := log.Close(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	restored, err := serve.RestoreServer(&snap, cfg)
	if err != nil {
		return nil, err
	}
	m["serve.restore_ms"] = metric{ms(since(t0)), "ms"}
	drain(restored)

	// cluster: the ring lookup ROADMAP 2(c) needs a number for.
	ring := cluster.NewRing(3)
	const lookups = 1 << 20
	node := 0
	t0 = time.Now()
	for id := uint64(0); id < lookups; id++ {
		node += ring.Node(id)
	}
	m["cluster.ring_node_ns"] = metric{since(t0) / lookups, "ns"}
	if node < 0 {
		return nil, fmt.Errorf("ring lookups overflowed") // keeps the loop live
	}
	return fsCounts, nil
}
