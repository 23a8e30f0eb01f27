package wal_test

// frame_test.go holds the log's verbatim event records to the encoder at
// the edges of float64: an /ingest event is logged as the frame it arrived
// as, an in-process one as its encoding, and the two must be the same bytes
// for every bit pattern the wire admits — NaNs with payloads and either
// sign, negative zero, subnormals and infinities — not only for the finite
// values a trace generator draws.

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/servehttp"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

// edgeBitFeed is two interleaved jobs whose heartbeats carry edge-case
// float bit patterns in their features, and whose events carry them in
// Time and Latency wherever validation admits them (a NaN or -Inf time
// does not move the job clock; a +Inf time fires every boundary).
func edgeBitFeed() ([]wire.JobSpec, []wire.Event) {
	var (
		nanPay  = math.Float64frombits(0x7ff8_0000_dead_beef) // quiet, with payload
		sNaN    = math.Float64frombits(0x7ff0_0000_0000_0001) // signalling
		negNaN  = math.Float64frombits(0xfff8_0000_0000_0042)
		negZero = math.Copysign(0, -1)
		sub     = math.SmallestNonzeroFloat64
		maxSub  = math.Float64frombits(0x000f_ffff_ffff_ffff)
		inf     = math.Inf(1)
	)
	job := func(id uint64) []wire.Event {
		hb := func(task int, t float64, tick int, f ...float64) wire.Event {
			return wire.Event{Kind: wire.EventHeartbeat, JobID: id, TaskID: task, Time: t, Tick: tick, Features: f}
		}
		fin := func(task int, t, lat float64) wire.Event {
			return wire.Event{Kind: wire.EventTaskFinish, JobID: id, TaskID: task, Time: t, Latency: lat}
		}
		start := func(task int, t float64) wire.Event {
			return wire.Event{Kind: wire.EventTaskStart, JobID: id, TaskID: task, Time: t}
		}
		return []wire.Event{
			start(0, negZero), start(1, sub), start(2, maxSub), start(3, -inf), start(4, 1), start(5, 1),
			hb(0, 5, 1, nanPay, negZero, sub),
			hb(1, math.NaN(), 1, inf, -inf, sNaN),
			hb(2, 6, 1, negNaN, -sub, maxSub),
			hb(3, 7, 1, 1, 2, 3),
			hb(4, 8, 1, 4, 5, 6),
			hb(5, 9, 1, 7, 8, 9),
			fin(0, 20, nanPay),
			fin(1, 21, inf),
			fin(2, 22, sub),
			hb(3, 30, 2, negZero, nanPay, inf),
			hb(4, 31, 2, negNaN, 0, -inf),
			fin(3, 40, negZero),
			hb(4, 55, 3, 1, sNaN, maxSub),
			hb(5, inf, 4, sNaN, -inf, 0),
			fin(4, 60, 59),
			{Kind: wire.EventJobFinish, JobID: id, Time: inf},
		}
	}
	specs := []wire.JobSpec{
		{JobID: 1, Schema: []string{"a", "b", "c"}, NumTasks: 6, TauStra: 10, Horizon: 100, Checkpoints: 4, WarmFrac: 0.2, Seed: 1},
		{JobID: 2, Schema: []string{"a", "b", "c"}, NumTasks: 6, TauStra: 10, Horizon: 100, Checkpoints: 4, WarmFrac: 0.2, Seed: 2},
	}
	// Runs of three of one job, then three of the other, so a body holds
	// both runs of one job and switches between jobs.
	a, b := job(1), job(2)
	var events []wire.Event
	for i := 0; i < len(a); i += 3 {
		events = append(events, a[i:min(i+3, len(a))]...)
		events = append(events, b[i:min(i+3, len(b))]...)
	}
	return specs, events
}

// verdictText prints a job's verdicts with any Prediction spelled out, so
// two runs compare equal when their NaNs are in the same places.
func verdictText(t *testing.T, sv *serve.Server, spec wire.JobSpec) string {
	t.Helper()
	ids := make([]int, spec.NumTasks)
	for i := range ids {
		ids[i] = i
	}
	vs, err := sv.Query(spec.JobID, ids)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, v := range vs {
		p := v.Prediction
		v.Prediction = nil
		fmt.Fprintf(&sb, "%+v", v)
		if p != nil {
			fmt.Fprintf(&sb, " %+v", *p)
		}
		sb.WriteByte('\n')
	}
	rep, err := sv.Report(spec.JobID)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "done %v failed %v checkpoint %d started %d finished %d terminated %d refits %d flagged %v\n",
		rep.Done, rep.Failed, rep.Checkpoint, rep.Started, rep.Finished, rep.Terminated, rep.Refits, rep.PredictedAt)
	return sb.String()
}

// TestEdgeBitBodyMatchesEncodedLog: the edge-bit feed through POST /ingest
// (events logged as the frames that arrived) and through in-process
// StartJob and Ingest (events encoded) leaves byte-identical directories,
// and both recover to the live server's verdicts.
func TestEdgeBitBodyMatchesEncodedLog(t *testing.T) {
	specs, events := edgeBitFeed()
	cfg := serve.Config{Shards: 2} // the paper's NURD, so the edge values reach real fits
	opts := wal.Options{SyncEvery: time.Hour}

	byEvent := waltest.NewMemFS()
	opts.FS = byEvent
	sv, log, _, err := serve.Recover("wal", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if err := sv.StartJob(sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, ev := range events {
		if err := sv.Ingest(ev); err != nil {
			t.Fatalf("event %d (%+v): %v", i, ev, err)
		}
	}
	var want []string
	for _, sp := range specs {
		want = append(want, verdictText(t, sv, sp))
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	byBody := waltest.NewMemFS()
	opts.FS = byBody
	sv, log, _, err = serve.Recover("wal", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := wire.WriteDump(&body, specs, events); err != nil {
		t.Fatal(err)
	}
	mustPost(t, servehttp.NewHandler(sv), body.Bytes(), len(specs)+len(events))
	for i, sp := range specs {
		if got := verdictText(t, sv, sp); got != want[i] {
			t.Fatalf("job %d through /ingest:\n%s\nthrough Ingest:\n%s", sp.JobID, got, want[i])
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	if len(byBody.Files) != len(byEvent.Files) {
		t.Fatalf("body-fed directory holds %d files, event-fed %d", len(byBody.Files), len(byEvent.Files))
	}
	for name, w := range byEvent.Files {
		if got, ok := byBody.Files[name]; !ok || !bytes.Equal(got, w) {
			t.Fatalf("%s differs: %d bytes body-fed, %d event-fed", name, len(got), len(w))
		}
	}

	for _, fs := range []*waltest.MemFS{byEvent, byBody} {
		opts.FS = fs
		revived, log, _, err := serve.Recover("wal", cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, sp := range specs {
			if got := verdictText(t, revived, sp); got != want[i] {
				t.Fatalf("job %d recovered:\n%s\nlive:\n%s", sp.JobID, got, want[i])
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
