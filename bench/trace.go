package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nurd"
	"repro/internal/simulator"
	"repro/internal/wire"
)

// span is one call the harness made into a layer. Parent is the span that
// caused it (0: none); spans of one job share Job. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    uint64 `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

// tracer records spans in memory. A nil *tracer records nothing, which is
// how timed passes run: every method is a no-op on nil.
type tracer struct {
	t0    time.Time
	cur   atomic.Int64 // the running phase's span ID
	mu    sync.Mutex
	spans []span
	// views collects every checkpoint view a wrapped predictor was shown,
	// per job in firing order, for the model-layer replays.
	views map[uint64][]*simulator.Checkpoint
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), views: make(map[uint64][]*simulator.Checkpoint)}
}

func (t *tracer) begin(name string, parent int, job uint64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) addBytes(id, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Bytes = n
	t.mu.Unlock()
}

func (t *tracer) setPhase(id int) {
	if t != nil {
		t.cur.Store(int64(id))
	}
}

func (t *tracer) phase() int {
	if t == nil {
		return 0
	}
	return int(t.cur.Load())
}

// durations returns the lengths of every finished span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write dumps the spans, and what the WAL asked of its filesystem, to
// bench/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64, fs map[string]int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		Seed     uint64           `json:"seed"`
		WALFS    map[string]int64 `json:"wal_fs"`
		Spans    []span           `json:"spans"`
	}{workload, seed, fs, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// wrapPredictors makes every predictor the factory builds record a span
// around Predict and keep the view it was shown.
func (t *tracer) wrapPredictors(factory func(wire.JobSpec) simulator.Predictor) func(wire.JobSpec) simulator.Predictor {
	if t == nil {
		return factory
	}
	return func(spec wire.JobSpec) simulator.Predictor {
		return &tracedPredictor{Predictor: factory(spec), t: t, job: spec.JobID}
	}
}

type tracedPredictor struct {
	simulator.Predictor
	t   *tracer
	job uint64
}

func (p *tracedPredictor) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	// A fit runs on a refit worker, after the ingest call that fired its
	// boundary has returned: the phase is the closest span that caused it.
	id := p.t.begin("predictor.Predict", p.t.phase(), p.job)
	out, err := p.Predictor.Predict(cp)
	p.t.end(id)
	p.t.mu.Lock()
	p.t.views[p.job] = append(p.t.views[p.job], cp)
	p.t.mu.Unlock()
	return out, err
}

// Model and RefitCounts keep the wrapped predictor visible to the serving
// layer, which publishes the model for queries and counts fits by kind.
func (p *tracedPredictor) Model() *nurd.Model {
	if m, ok := p.Predictor.(interface{ Model() *nurd.Model }); ok {
		return m.Model()
	}
	return nil
}

func (p *tracedPredictor) RefitCounts() (warm, scratch uint64) {
	if c, ok := p.Predictor.(interface{ RefitCounts() (uint64, uint64) }); ok {
		return c.RefitCounts()
	}
	return 0, 0
}
