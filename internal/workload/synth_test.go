package workload

import (
	"bytes"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/serve"
	"repro/internal/wire"
)

// synthWire synthesizes the named builtin and renders its full hostile wire
// dump (hostile=true exercises the corruption draws too).
func synthWire(t testing.TB, name string) (*Workload, []byte) {
	t.Helper()
	ws, ok := Builtin(name)
	if !ok {
		t.Fatalf("builtin %q missing", name)
	}
	wl, err := Synthesize(ws)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wl.WriteWire(&buf, true); err != nil {
		t.Fatal(err)
	}
	return wl, buf.Bytes()
}

// TestSynthesizeDeterminism is the reproducibility contract: the same spec
// and seed produce a byte-identical wire stream on every run, at any
// GOMAXPROCS — which is what lets a scenario name + seed in a BENCH report
// stand in for the gigabytes of traffic it generated.
func TestSynthesizeDeterminism(t *testing.T) {
	for _, name := range ScenarioNames() {
		_, first := synthWire(t, name)
		_, again := synthWire(t, name)
		if !bytes.Equal(first, again) {
			t.Errorf("%s: re-synthesis changed the wire stream (%d vs %d bytes)", name, len(first), len(again))
		}
		prev := runtime.GOMAXPROCS(1)
		_, serial := synthWire(t, name)
		runtime.GOMAXPROCS(prev)
		if !bytes.Equal(first, serial) {
			t.Errorf("%s: GOMAXPROCS=1 synthesis diverged", name)
		}
	}
}

// TestSynthesizeIgnoresQueryRate: the prober rate shapes a load run, not
// its traffic, so no builtin's wire stream depends on it.
func TestSynthesizeIgnoresQueryRate(t *testing.T) {
	for _, name := range ScenarioNames() {
		_, want := synthWire(t, name)
		ws, _ := Builtin(name)
		ws.QueryRate += 7
		wl, err := Synthesize(ws)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := wl.WriteWire(&got, true); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: query_rate changed the synthesized wire stream", name)
		}
	}
}

// TestSynthesizeSeedSensitivity: a different seed must actually change the
// stream (guards against a seed that is read but never used).
func TestSynthesizeSeedSensitivity(t *testing.T) {
	ws, _ := Builtin("smoke")
	wl1, err := Synthesize(ws)
	if err != nil {
		t.Fatal(err)
	}
	ws2, _ := Builtin("smoke")
	ws2.Seed++
	wl2, err := Synthesize(ws2)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := wl1.WriteWire(&b1, false); err != nil {
		t.Fatal(err)
	}
	if err := wl2.WriteWire(&b2, false); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("seed change left the wire stream identical")
	}
}

// TestSynthesizeStructure checks the timeline invariants every consumer
// relies on: sorted send times, spec-before-events per job, non-decreasing
// event times within a job, and count bookkeeping.
func TestSynthesizeStructure(t *testing.T) {
	for _, name := range []string{"steady", "hostile"} {
		wl, _ := synthWire(t, name)
		if wl.Jobs == 0 || wl.Events == 0 {
			t.Fatalf("%s: empty synthesis (%d jobs, %d events)", name, wl.Jobs, wl.Events)
		}
		if !sort.SliceIsSorted(wl.Items, func(i, j int) bool { return wl.Items[i].At < wl.Items[j].At }) {
			t.Errorf("%s: timeline not sorted by At", name)
		}
		specs, events, malformed := 0, 0, 0
		seen := map[uint64]bool{}        // job registered before its events?
		lastTime := map[uint64]float64{} // per-job event times non-decreasing?
		for i := range wl.Items {
			it := &wl.Items[i]
			if it.Spec != nil {
				specs++
				seen[it.Spec.JobID] = true
				continue
			}
			if it.Malformed() {
				malformed++
			} else {
				events++
			}
			if !seen[it.Event.JobID] {
				t.Fatalf("%s: event for job %d precedes its spec in the timeline", name, it.Event.JobID)
			}
			if it.Event.Time < lastTime[it.Event.JobID] {
				t.Fatalf("%s: job %d event time regressed", name, it.Event.JobID)
			}
			lastTime[it.Event.JobID] = it.Event.Time
		}
		if specs != wl.Jobs || events != wl.Events || malformed != wl.Malformed {
			t.Errorf("%s: counts drifted: %d/%d specs, %d/%d events, %d/%d malformed",
				name, specs, wl.Jobs, events, wl.Events, malformed, wl.Malformed)
		}
		if name == "hostile" && wl.Malformed == 0 {
			t.Error("hostile scenario injected no malformed frames")
		}
		if wl.Span <= 0 || wl.Span > wl.Spec.Duration*3 {
			t.Errorf("%s: span %v implausible for duration %v", name, wl.Span, wl.Spec.Duration)
		}
	}
}

// TestCleanWireReplayable: the hostile scenario's CLEAN dump (hostile=false)
// must replay into a server without a single error — corruption is a send-
// time overlay, not a property of the synthesized content.
func TestCleanWireReplayable(t *testing.T) {
	ws, _ := Builtin("hostile")
	wl, err := Synthesize(ws)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wl.WriteWire(&buf, false); err != nil {
		t.Fatal(err)
	}
	sv := serve.NewServer(serve.Config{Shards: 2})
	st, err := sv.Feed(wire.NewReader(bytes.NewReader(buf.Bytes())), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Specs != wl.Jobs || st.Events != wl.Events {
		t.Errorf("replay applied %d specs / %d events, synthesis claims %d / %d",
			st.Specs, st.Events, wl.Jobs, wl.Events)
	}
}

// TestHostileWireRejected: with hostile=true every flagged frame must fail
// the wire CRC — and only desynchronize its own frame, never the reader.
func TestHostileWireRejected(t *testing.T) {
	ws, _ := Builtin("hostile")
	wl, err := Synthesize(ws)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := 0, 0
	for i := range wl.Items {
		it := &wl.Items[i]
		frame, err := AppendItemWire(wire.AppendHeader(nil), it, true)
		if err != nil {
			t.Fatal(err)
		}
		rd := wire.NewReader(bytes.NewReader(frame))
		_, _, err = rd.NextFrame()
		if it.Malformed() {
			if err == nil {
				t.Fatalf("item %d flagged malformed but decoded cleanly", i)
			}
			bad++
		} else {
			if err != nil {
				t.Fatalf("item %d clean but failed decode: %v", i, err)
			}
			good++
		}
	}
	if bad != wl.Malformed || good != wl.Jobs+wl.Events {
		t.Errorf("decoded %d good / %d bad, synthesis claims %d / %d", good, bad, wl.Jobs+wl.Events, wl.Malformed)
	}
}

// TestSynthesizeMergeMatchesStableSort: the merged timeline is the stable
// sort by At of the per-job runs laid end to end, the order the old sort of
// the whole timeline gave. Besides the builtins it runs a spec built for
// ties: two constant-rate clients arrive at the same instants, and
// corrupted copies share their clean item's At.
func TestSynthesizeMergeMatchesStableSort(t *testing.T) {
	client := func(name string, process string, mrate float64) ClientSpec {
		return ClientSpec{
			Name:          name,
			Arrival:       ArrivalSpec{Process: process, Rate: 1},
			JobTasks:      DistSpec{Dist: DistLogNormal, Mu: 3.5, Sigma: 0.4, Min: 10, Max: 80},
			JobDuration:   typicalDuration(),
			FarFraction:   0.5,
			MalformedRate: mrate,
		}
	}
	ties := &WorkloadSpec{Name: "ties", Seed: 7, Duration: 10, Trace: "alibaba", Clients: []ClientSpec{
		client("twin-a", ArrivalConstant, 0.2),
		client("twin-b", ArrivalConstant, 0.05),
		client("poisson", ArrivalPoisson, 0.1),
	}}
	specs := []*WorkloadSpec{ties}
	for _, name := range ScenarioNames() {
		ws, _ := Builtin(name)
		specs = append(specs, ws)
	}
	for _, ws := range specs {
		wl, err := Synthesize(ws)
		if err != nil {
			t.Fatal(err)
		}
		_, runs, err := synthesizeRuns(ws)
		if err != nil {
			t.Fatal(err)
		}
		var want []Item
		for _, r := range runs {
			want = append(want, r...)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].At < want[j].At })
		if !reflect.DeepEqual(wl.Items, want) {
			t.Fatalf("%s: merged timeline differs from the stable sort of its runs", ws.Name)
		}
		if ws != ties {
			continue
		}
		specTies, copyTies := 0, 0
		for i := 1; i < len(want); i++ {
			switch a, b := &want[i-1], &want[i]; {
			case a.At != b.At:
			case a.Spec != nil && b.Spec != nil:
				specTies++
			case b.Malformed():
				copyTies++
			}
		}
		if specTies == 0 || copyTies == 0 {
			t.Fatalf("ties spec tied %d specs and %d corrupted copies; want both", specTies, copyTies)
		}
	}
}

// BenchmarkSynthesize expands the built-in diurnal scenario: the set-up
// every load run and the benchmark pay before they send a frame.
func BenchmarkSynthesize(b *testing.B) {
	ws, _ := Builtin("diurnal")
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		wl, err := Synthesize(ws)
		if err != nil {
			b.Fatal(err)
		}
		events = wl.Events
	}
	if events == 0 {
		b.Fatal("diurnal synthesized no events")
	}
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/op")
	b.ReportMetric(float64(events), "events/op")
}
