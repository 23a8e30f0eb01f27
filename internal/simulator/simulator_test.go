package simulator

import (
	"math"
	"sort"
	"testing"

	"repro/internal/trace"
)

func testJob(t *testing.T, seed uint64) *trace.Job {
	t.Helper()
	gen, err := trace.NewGenerator(trace.DefaultGoogleConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return gen.Next()
}

func TestNewValidatesConfig(t *testing.T) {
	job := testJob(t, 1)
	bad := DefaultConfig()
	bad.Checkpoints = 0
	if _, err := New(job, bad); err == nil {
		t.Fatal("expected checkpoint error")
	}
	bad = DefaultConfig()
	bad.WarmFrac = 0.6
	if _, err := New(job, bad); err == nil {
		t.Fatal("expected warmfrac error")
	}
	bad = DefaultConfig()
	bad.StragglerQuantile = 1.0
	if _, err := New(job, bad); err == nil {
		t.Fatal("expected quantile error")
	}
	// NaN compares false with every bound, so it must fail the range tests
	// rather than reach the quantile lookups.
	bad = DefaultConfig()
	bad.WarmFrac = math.NaN()
	if _, err := New(job, bad); err == nil {
		t.Fatal("expected warmfrac error for NaN")
	}
	bad = DefaultConfig()
	bad.StragglerQuantile = math.NaN()
	if _, err := New(job, bad); err == nil {
		t.Fatal("expected quantile error for NaN")
	}
	if _, err := New(&trace.Job{}, DefaultConfig()); err == nil {
		t.Fatal("expected empty-job error")
	}
}

func TestTruthMatchesP90(t *testing.T) {
	job := testJob(t, 2)
	sim, err := New(job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lat := job.Latencies()
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	truth := sim.Truth()
	n := 0
	for i, l := range lat {
		if truth[i] != (l >= sim.TauStra()) {
			t.Fatalf("truth[%d] inconsistent", i)
		}
		if truth[i] {
			n++
		}
	}
	// About 10% of tasks straggle (within tolerance for ties).
	frac := float64(n) / float64(len(lat))
	if frac < 0.05 || frac > 0.2 {
		t.Fatalf("straggler fraction %v", frac)
	}
	if sim.NumStragglers() != n {
		t.Fatalf("NumStragglers %d != %d", sim.NumStragglers(), n)
	}
}

func TestCheckpointPartition(t *testing.T) {
	job := testJob(t, 3)
	sim, err := New(job, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 10; k++ {
		cp := sim.At(k, nil)
		if len(cp.FinishedIDs) != len(cp.FinishedX) || len(cp.FinishedX) != len(cp.FinishedY) {
			t.Fatalf("finished slices inconsistent at k=%d", k)
		}
		if len(cp.RunningIDs) != len(cp.RunningX) || len(cp.RunningX) != len(cp.RunningElapsed) {
			t.Fatalf("running slices inconsistent at k=%d", k)
		}
		// finished + running + undispatched must cover all tasks exactly once.
		seen := map[int]bool{}
		for _, id := range cp.FinishedIDs {
			seen[id] = true
		}
		for _, id := range cp.RunningIDs {
			if seen[id] {
				t.Fatalf("task %d in both sets at k=%d", id, k)
			}
			seen[id] = true
		}
		undispatched := 0
		for i := range job.Tasks {
			if !seen[i] {
				undispatched++
				if job.Tasks[i].Start <= cp.TauRun {
					t.Fatalf("dispatched task %d missing from checkpoint %d", i, k)
				}
			}
		}
		if len(seen)+undispatched != job.NumTasks() {
			t.Fatalf("partition lost tasks at k=%d", k)
		}
	}
}

func TestCheckpointSemantics(t *testing.T) {
	job := testJob(t, 4)
	sim, _ := New(job, DefaultConfig())
	cp := sim.At(5, nil)
	for i, id := range cp.FinishedIDs {
		task := job.Tasks[id]
		if task.Start+task.Latency > cp.TauRun {
			t.Fatalf("finished task %d actually completes later", id)
		}
		if cp.FinishedY[i] != task.Latency {
			t.Fatalf("finished latency mismatch for %d", id)
		}
	}
	for i, id := range cp.RunningIDs {
		task := job.Tasks[id]
		if task.Start > cp.TauRun || task.Start+task.Latency <= cp.TauRun {
			t.Fatalf("running task %d not actually running", id)
		}
		want := cp.TauRun - task.Start
		if cp.RunningElapsed[i] != want {
			t.Fatalf("elapsed mismatch for %d: %v vs %v", id, cp.RunningElapsed[i], want)
		}
	}
}

func TestFinishedSetMonotone(t *testing.T) {
	job := testJob(t, 5)
	sim, _ := New(job, DefaultConfig())
	prev := map[int]bool{}
	for k := 1; k <= 10; k++ {
		cp := sim.At(k, nil)
		cur := map[int]bool{}
		for _, id := range cp.FinishedIDs {
			cur[id] = true
		}
		for id := range prev {
			if !cur[id] {
				t.Fatalf("task %d un-finished between checkpoints", id)
			}
		}
		prev = cur
	}
	// At the final checkpoint everything has finished.
	last := sim.At(10, nil)
	if len(last.RunningIDs) != 0 {
		t.Fatalf("%d tasks still running at the final checkpoint", len(last.RunningIDs))
	}
}

func TestTerminatedExcluded(t *testing.T) {
	job := testJob(t, 6)
	sim, _ := New(job, DefaultConfig())
	term := map[int]bool{0: true, 1: true}
	cp := sim.At(5, term)
	for _, id := range append(append([]int{}, cp.FinishedIDs...), cp.RunningIDs...) {
		if term[id] {
			t.Fatalf("terminated task %d appeared in checkpoint", id)
		}
	}
}

// flagAll predicts straggler for every running task at its first sight.
type flagAll struct{}

func (flagAll) Name() string { return "flag-all" }
func (flagAll) Reset()       {}
func (flagAll) Predict(cp *Checkpoint) ([]bool, error) {
	out := make([]bool, len(cp.RunningIDs))
	for i := range out {
		out[i] = true
	}
	return out, nil
}

// flagNone never predicts a straggler.
type flagNone struct{}

func (flagNone) Name() string { return "flag-none" }
func (flagNone) Reset()       {}
func (flagNone) Predict(cp *Checkpoint) ([]bool, error) {
	return make([]bool, len(cp.RunningIDs)), nil
}

func TestEvaluateFlagNone(t *testing.T) {
	job := testJob(t, 7)
	sim, _ := New(job, DefaultConfig())
	res, err := Evaluate(sim, flagNone{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.TP != 0 || res.Final.FP != 0 {
		t.Fatalf("flag-none produced positives: %+v", res.Final)
	}
	if res.Final.FN != sim.NumStragglers() {
		t.Fatalf("FN %d != stragglers %d", res.Final.FN, sim.NumStragglers())
	}
	if len(res.PredictedAt) != 0 {
		t.Fatal("flag-none should flag nothing")
	}
}

func TestEvaluateFlagAll(t *testing.T) {
	job := testJob(t, 8)
	sim, _ := New(job, DefaultConfig())
	res, err := Evaluate(sim, flagAll{})
	if err != nil {
		t.Fatal(err)
	}
	// Every straggler still running at the first prediction checkpoint gets
	// flagged, so TPR is high; every running non-straggler is an FP.
	if res.Final.TPR() < 0.5 {
		t.Fatalf("flag-all TPR %v unexpectedly low", res.Final.TPR())
	}
	if res.Final.FP == 0 {
		t.Fatal("flag-all should produce false positives")
	}
	// Confusion totals must cover the whole job.
	total := res.Final.TP + res.Final.FP + res.Final.TN + res.Final.FN
	if total != job.NumTasks() {
		t.Fatalf("confusion covers %d of %d tasks", total, job.NumTasks())
	}
}

func TestEvaluatePerCheckpointCumulative(t *testing.T) {
	job := testJob(t, 9)
	sim, _ := New(job, DefaultConfig())
	res, err := Evaluate(sim, flagAll{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCheckpoint) != 10 {
		t.Fatalf("%d per-checkpoint entries", len(res.PerCheckpoint))
	}
	prevFlagged := -1
	for k, c := range res.PerCheckpoint {
		flagged := c.TP + c.FP
		if flagged < prevFlagged {
			t.Fatalf("cumulative flags decreased at checkpoint %d", k+1)
		}
		prevFlagged = flagged
	}
	if last := res.PerCheckpoint[9]; last != res.Final {
		t.Fatalf("final confusion %+v != last checkpoint %+v", res.Final, last)
	}
}

func TestEvaluateNeverReflagsTerminated(t *testing.T) {
	job := testJob(t, 10)
	sim, _ := New(job, DefaultConfig())
	res, err := Evaluate(sim, flagAll{})
	if err != nil {
		t.Fatal(err)
	}
	// PredictedAt must assign exactly one checkpoint per flagged task.
	for id, k := range res.PredictedAt {
		if k < 1 || k > 10 {
			t.Fatalf("task %d flagged at invalid checkpoint %d", id, k)
		}
	}
}

func TestTauRunMonotone(t *testing.T) {
	// The prediction grid (k >= 1) is monotone; the warmup horizon (k = 0)
	// is a completion quantile and may fall on either side of tauRun(1).
	job := testJob(t, 11)
	sim, _ := New(job, DefaultConfig())
	for k := 2; k <= 10; k++ {
		if sim.TauRun(k) < sim.TauRun(k-1) {
			t.Fatalf("tauRun not monotone at %d", k)
		}
	}
	if sim.TauRun(0) <= 0 {
		t.Fatal("warmup horizon must be positive")
	}
}
