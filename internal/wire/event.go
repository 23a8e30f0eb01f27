// Package wire is the serving stack's bottom layer: the versioned,
// length-prefixed, checksummed binary frame format plus the plain data
// types that travel in it (Event, JobSpec, RefitMode) and the observation
// pool NextInto draws from. It imports no other internal package —
// everything above (WAL segments, the serving node, the HTTP front) speaks
// this format, and the layering test pins the independence.
package wire

import (
	"fmt"
	"math"
)

// EventKind discriminates task lifecycle events.
type EventKind uint8

// The task lifecycle: a task starts, emits feature heartbeats at monitoring
// ticks while it runs, and finishes with its observed latency. JobFinish
// marks the end of a job's stream and flushes any pending checkpoints.
const (
	// EventTaskStart announces a dispatched task.
	EventTaskStart EventKind = iota
	// EventHeartbeat delivers a task's monitored features at tick Tick.
	EventHeartbeat
	// EventTaskFinish reports a task's completion and true latency.
	EventTaskFinish
	// EventJobFinish closes the job's stream (no TaskID); every checkpoint
	// not yet fired is evaluated with the final state.
	EventJobFinish
)

// String returns the event-kind label.
func (k EventKind) String() string {
	switch k {
	case EventTaskStart:
		return "task-start"
	case EventHeartbeat:
		return "heartbeat"
	case EventTaskFinish:
		return "task-finish"
	case EventJobFinish:
		return "job-finish"
	default:
		return "unknown"
	}
}

// Event is one element of a job's monitoring stream. Events for a single job
// must be delivered in non-decreasing Time order (the per-job monitoring
// pipeline is ordered); events of different jobs interleave arbitrarily and
// may be ingested from concurrent goroutines.
type Event struct {
	// Kind selects the lifecycle transition.
	Kind EventKind
	// JobID routes the event to its job's shard.
	JobID uint64
	// TaskID identifies the task within the job (ignored for JobFinish).
	TaskID int
	// Time is the job-relative wall-clock timestamp of the event. The serving
	// clock is virtual: the Server orders state changes and checkpoint
	// crossings by Time, while ingest throughput is bounded only by the
	// caller.
	Time float64
	// Tick is the monitoring tick of a heartbeat (checkpoint index the
	// observation belongs to); informational for other kinds.
	Tick int
	// Features carries the monitored feature vector of a heartbeat. The
	// Server copies it at Ingest into the task's own feature row, so the
	// caller may reuse or overwrite the slice once Ingest returns.
	Features []float64
	// Latency is the finished task's true execution duration (TaskFinish).
	Latency float64
	// Pooled marks Features as drawn from the package observation pool
	// (set only by NextInto, never by callers), so the walk's caller knows
	// to hand the slice back with PutObservation.
	Pooled bool
}

// JobSpec declares a job to the Server before any of its events arrive.
// Everything here is information a production control plane has at
// submission time: the schema of the monitoring pipeline, the task count of
// the submitted job, the operator-specified straggler threshold (§2: "a
// task whose latency is above an operator-specified threshold"), and the
// monitoring schedule (horizon plus number of checkpoints).
type JobSpec struct {
	// JobID identifies the job; events carry it.
	JobID uint64
	// Schema names the feature columns (len gates feature validation).
	Schema []string
	// NumTasks is the job's total task count, used for the warmup gate
	// exactly as simulator.Evaluate uses it.
	NumTasks int
	// TauStra is the operator-specified straggler latency threshold.
	TauStra float64
	// StragglerQuantile records the quantile TauStra was derived from
	// (budget-aware predictors exploit it; 0.9 in the paper).
	StragglerQuantile float64
	// Horizon is the expected makespan; checkpoint k fires when the job's
	// event clock passes Horizon*k/Checkpoints, mirroring the simulator's
	// evenly spaced normalized-time horizons.
	Horizon float64
	// Checkpoints is the number of refit boundaries T (the paper uses 10).
	Checkpoints int
	// WarmFrac is the finished fraction required before predictions start
	// (the paper waits for 4%).
	WarmFrac float64
	// Seed reaches the Server's Config.NewPredictor factory with the spec
	// (ignored for explicitly supplied predictors). The default factory's
	// NURD reads nothing of it: the boosted fits of NURD, GBTR, Grabit and
	// XGBOD draw no random numbers. The fits that do draw from it are
	// Wrangler's SVM and sampling, PU-EN, PU-BG and the randomized outlier
	// detectors, XGBOD's isolation forest among them.
	Seed uint64
	// RefitMode selects the job's checkpoint refit strategy (scratch vs
	// warm-started incremental boosting; see refit.go). RefitModeDefault is
	// resolved to the server's Config.RefitMode at registration, so the mode
	// recorded in the WAL is always concrete and recovery replays refits
	// identically.
	RefitMode RefitMode
}

// Validate checks the spec's invariants.
func (sp *JobSpec) Validate() error {
	if sp.NumTasks <= 0 {
		return fmt.Errorf("serve: job %d: NumTasks must be positive, got %d", sp.JobID, sp.NumTasks)
	}
	// The upper bound is the wire decoder's: a registration cannot demand
	// an arbitrarily large task-slice allocation.
	if sp.NumTasks > MaxSnapTasks {
		return fmt.Errorf("serve: job %d: NumTasks %d above the serving cap %d", sp.JobID, sp.NumTasks, MaxSnapTasks)
	}
	if len(sp.Schema) == 0 {
		return fmt.Errorf("serve: job %d: empty schema", sp.JobID)
	}
	if len(sp.Schema) > MaxSchemaCols {
		return fmt.Errorf("serve: job %d: schema of %d columns above the serving cap %d", sp.JobID, len(sp.Schema), MaxSchemaCols)
	}
	for _, c := range sp.Schema {
		if len(c) > MaxSchemaName {
			return fmt.Errorf("serve: job %d: schema column name of %d bytes above the serving cap %d", sp.JobID, len(c), MaxSchemaName)
		}
	}
	// Each float test is written so that NaN fails it: NaN compares false
	// with everything, so `x <= 0` would admit one.
	if !(sp.TauStra > 0 && sp.TauStra <= math.MaxFloat64) {
		return fmt.Errorf("serve: job %d: TauStra must be positive and finite, got %v", sp.JobID, sp.TauStra)
	}
	if !(sp.StragglerQuantile > 0 && sp.StragglerQuantile < 1) {
		return fmt.Errorf("serve: job %d: StragglerQuantile must be in (0, 1), got %v", sp.JobID, sp.StragglerQuantile)
	}
	if !(sp.Horizon > 0 && sp.Horizon <= math.MaxFloat64) {
		return fmt.Errorf("serve: job %d: Horizon must be positive and finite, got %v", sp.JobID, sp.Horizon)
	}
	if sp.Checkpoints < 1 {
		return fmt.Errorf("serve: job %d: need >= 1 checkpoint, got %d", sp.JobID, sp.Checkpoints)
	}
	if sp.Checkpoints > MaxSnapCheckpoints {
		return fmt.Errorf("serve: job %d: Checkpoints %d above the serving cap %d", sp.JobID, sp.Checkpoints, MaxSnapCheckpoints)
	}
	if !(sp.WarmFrac > 0 && sp.WarmFrac < 0.5) {
		return fmt.Errorf("serve: job %d: WarmFrac must be in (0, 0.5), got %v", sp.JobID, sp.WarmFrac)
	}
	if sp.RefitMode > RefitWarm {
		return fmt.Errorf("serve: job %d: unknown refit mode %d", sp.JobID, sp.RefitMode)
	}
	return nil
}

// TauRun returns the wall-clock horizon of checkpoint k (1..Checkpoints).
func (sp *JobSpec) TauRun(k int) float64 {
	return sp.Horizon * float64(k) / float64(sp.Checkpoints)
}
