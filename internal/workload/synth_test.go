package workload

import (
	"bytes"
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
