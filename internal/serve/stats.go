package serve

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/nurd"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TaskVerdict answers one task of a batched query.
type TaskVerdict struct {
	// TaskID echoes the queried ID.
	TaskID int
	// Known reports whether the task has started (false also for IDs out of
	// range — queries never fail on individual tasks).
	Known bool
	// Finished reports normal completion.
	Finished bool
	// Flagged reports the task was terminated as a predicted straggler, at
	// checkpoint FlaggedAt.
	Flagged   bool
	FlaggedAt int
	// Prediction holds the model's current latency view for a running task
	// when the job's predictor exposes a nurd.Model (nil otherwise).
	Prediction *nurd.Prediction
	// Straggler is the verdict against the job's tau_stra: true for flagged
	// tasks, the true latency test for finished ones, and the model's
	// adjusted-latency test for running ones.
	Straggler bool
}

// JobReport summarizes one job's serving run.
type JobReport struct {
	// Spec echoes the registration.
	Spec wire.JobSpec
	// Done reports the stream has closed (JobFinish seen or predictor
	// failure); Failed distinguishes the latter.
	Done   bool
	Failed bool
	// Checkpoint is the last boundary fired (0 = none yet).
	Checkpoint int
	// Started / Finished / Terminated count task outcomes so far.
	Started, Finished, Terminated int
	// Refits counts applied predictor refit+predict cycles; RefitTotal and
	// RefitMax aggregate their latencies (measured on the background
	// workers, not on the ingest path).
	Refits     int
	RefitTotal time.Duration
	RefitMax   time.Duration
	// Generation is the model generation queries are served from: the
	// number of refits whose outcome has been applied and published. It
	// equals Refits; PendingRefits (0 or 1) counts a checkpoint view
	// captured but not yet applied — together they make refit staleness
	// observable per job. The job's refit strategy is Spec.RefitMode.
	Generation    int
	PendingRefits int
	// WarmFits / ScratchFits split Refits by how the latency model was
	// fitted (warm-started extension vs full scratch fit).
	WarmFits, ScratchFits uint64
	// PredictedAt maps task ID -> checkpoint at which it was flagged, the
	// same shape simulator.Result records, so serving outcomes plug directly
	// into the offline scoring and scheduling paths.
	PredictedAt map[int]int
}

// Confusion scores the job's terminated set against per-task ground truth,
// the same final accounting simulator.Evaluate applies offline.
func (r *JobReport) Confusion(truth []bool) metrics.Confusion {
	pred := make([]bool, len(truth))
	for id := range r.PredictedAt {
		if id >= 0 && id < len(pred) {
			pred[id] = true
		}
	}
	c, _ := metrics.FromSets(pred, truth) // lengths equal by construction
	return c
}

// RefitMean returns the average refit latency.
func (r *JobReport) RefitMean() time.Duration {
	if r.Refits == 0 {
		return 0
	}
	return r.RefitTotal / time.Duration(r.Refits)
}

// Stats aggregates server-wide counters across shards.
type Stats struct {
	// Jobs counts registered jobs; ActiveJobs those still streaming.
	Jobs, ActiveJobs int
	// Events counts ingested events; DroppedEvents the benignly ignored
	// ones (late observations for terminated tasks).
	Events, DroppedEvents uint64
	// Terminations counts straggler kills issued across all jobs.
	Terminations uint64
	// Queries counts task verdicts served.
	Queries uint64
	// Refits counts applied predictor refit cycles; RefitTotal/RefitMax
	// aggregate their latencies (measured on the background workers).
	Refits     uint64
	RefitTotal time.Duration
	RefitMax   time.Duration
	// Refit-pipeline observability: RefitQueue and RefitInflight are the
	// live worker-pool gauges (views waiting for a worker / fits executing);
	// RefitLag counts checkpoint views captured but not yet applied across
	// all jobs — the generation lag between what the models have seen and
	// what queries are served from. All three are zero on a drained server.
	RefitQueue, RefitInflight, RefitLag int
	// WarmFits / ScratchFits split Refits by fit strategy (warm-started
	// ensemble extension vs full scratch fit).
	WarmFits, ScratchFits uint64
	// Overload is the overload-control taxonomy: shed counts by class,
	// queue depths and bounds, and rate-limit rejections (see overload.go).
	Overload OverloadStats
	// WAL carries the write-ahead log's counters (segments, next LSN,
	// group-commit backlog, checkpoints) when the server runs with one; nil
	// otherwise.
	WAL *wal.Stats `json:"WAL,omitempty"`
}

// RefitMean returns the average refit latency across all jobs.
func (s Stats) RefitMean() time.Duration {
	if s.Refits == 0 {
		return 0
	}
	return s.RefitTotal / time.Duration(s.Refits)
}

// String renders the counters compactly.
func (s Stats) String() string {
	base := fmt.Sprintf("jobs=%d active=%d events=%d dropped=%d refits=%d refit_mean=%s refit_max=%s refit_lag=%d warm=%d scratch=%d terminations=%d queries=%d",
		s.Jobs, s.ActiveJobs, s.Events, s.DroppedEvents, s.Refits, s.RefitMean(), s.RefitMax, s.RefitLag, s.WarmFits, s.ScratchFits, s.Terminations, s.Queries)
	base += " " + s.Overload.String()
	if s.WAL != nil {
		base += fmt.Sprintf(" wal_segments=%d wal_next_lsn=%d wal_pending=%dB wal_checkpoints=%d",
			s.WAL.Segments, s.WAL.NextLSN, s.WAL.PendingBytes, s.WAL.Checkpoints)
	}
	return base
}
