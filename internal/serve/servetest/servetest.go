// Package servetest provides the workload and oracle helpers the serving
// stack's black-box suites share: seeded trace jobs with their prepared
// replays, model-free predictors, a cheap server Config, and the
// timing-free core of a JobReport that the bit-identity tests compare. It
// is the one copy for every package that tests serve from outside
// (internal/wal, internal/servehttp, internal/cluster).
//
// Package serve's own white-box tests keep their own copy of these
// helpers: they are `package serve`, and importing servetest — which
// imports serve — would be an import cycle. That second copy is deliberate;
// do not try to fold it in here.
package servetest

import (
	"testing"

	"repro/internal/serve"
	"repro/internal/simulator"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Jobs generates n jobs plus their prepared replays.
func Jobs(t testing.TB, cfg trace.GenConfig, n int) ([]*trace.Job, []*simulator.Sim) {
	t.Helper()
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen.Jobs(n)
	sims := make([]*simulator.Sim, n)
	for i, j := range jobs {
		s, err := simulator.New(j, simulator.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = s
	}
	return jobs, sims
}

// SmallJobs is Jobs over the Google flavor at 30-60 tasks per job.
func SmallJobs(t testing.TB, n int, seed uint64) ([]*trace.Job, []*simulator.Sim) {
	t.Helper()
	cfg := trace.DefaultGoogleConfig(seed)
	cfg.MinTasks, cfg.MaxTasks = 30, 60
	return Jobs(t, cfg, n)
}

// FlagAll flags every running task at every checkpoint (a trivially cheap,
// deterministic predictor for protocol and concurrency tests).
type FlagAll struct{}

func (FlagAll) Name() string { return "flag-all" }
func (FlagAll) Reset()       {}
func (FlagAll) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	out := make([]bool, len(cp.RunningIDs))
	for i := range out {
		out[i] = true
	}
	return out, nil
}

// Nop flags nothing.
type Nop struct{}

func (Nop) Name() string { return "nop" }
func (Nop) Reset()       {}
func (Nop) Predict(cp *simulator.Checkpoint) ([]bool, error) {
	return make([]bool, len(cp.RunningIDs)), nil
}

// CheapConfig is a server Config whose predictor factory is FlagAll, so
// protocol, logging and recovery tests do not pay for model refits.
func CheapConfig(shards int) serve.Config {
	return serve.Config{Shards: shards, NewPredictor: func(wire.JobSpec) simulator.Predictor { return FlagAll{} }}
}

// PipelineSpec is a hand-built job whose checkpoint boundaries sit at known
// times (boundary k at time 10k), for deterministic refit-pipeline tests.
func PipelineSpec(id uint64) wire.JobSpec {
	return wire.JobSpec{
		JobID: id, Schema: []string{"a", "b"}, NumTasks: 8, TauStra: 50,
		StragglerQuantile: 0.9, Horizon: 100, Checkpoints: 10, WarmFrac: 0.1,
	}
}

// AllTaskIDs returns 0..n-1 plus one out-of-range probe.
func AllTaskIDs(n int) []int {
	ids := make([]int, n+1)
	for i := range ids {
		ids[i] = i - 1
	}
	return ids
}

// ReportCore strips the wall-clock timing fields from a JobReport, leaving
// exactly the deterministic outcome of a serving run.
type ReportCore struct {
	Spec                          wire.JobSpec
	Done, Failed                  bool
	Checkpoint                    int
	Started, Finished, Terminated int
	Refits                        int
	PredictedAt                   map[int]int
}

// CoreOf is r's ReportCore.
func CoreOf(r *serve.JobReport) ReportCore {
	return ReportCore{
		Spec: r.Spec, Done: r.Done, Failed: r.Failed, Checkpoint: r.Checkpoint,
		Started: r.Started, Finished: r.Finished, Terminated: r.Terminated,
		Refits: r.Refits, PredictedAt: r.PredictedAt,
	}
}
