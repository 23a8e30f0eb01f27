package serve

import (
	"sort"

	"repro/internal/simulator"
	"repro/internal/trace"
	"repro/internal/wire"
)

// SpecFor derives a JobSpec from a prepared offline replay: the monitoring
// schedule and thresholds a control plane would know at submission. seed
// seeds the job's predictor when the server constructs one.
func SpecFor(sim *simulator.Sim, seed uint64) wire.JobSpec {
	job := sim.Job
	return wire.JobSpec{
		JobID:             job.ID,
		Schema:            job.Schema,
		NumTasks:          job.NumTasks(),
		TauStra:           sim.TauStra(),
		StragglerQuantile: sim.Cfg.StragglerQuantile,
		Horizon:           job.Makespan(),
		Checkpoints:       sim.Cfg.Checkpoints,
		WarmFrac:          sim.Cfg.WarmFrac,
		Seed:              seed,
	}
}

// JobEvents flattens one job into its time-ordered monitoring stream:
// a start per task, a feature heartbeat per (visible task, checkpoint tick)
// carrying the same noisy observation the offline replay would see at that
// tick, a finish per task, and a closing job-finish. Replaying the result
// through a Server reproduces simulator.Evaluate's checkpoint views
// exactly.
func JobEvents(job *trace.Job, sim *simulator.Sim) []wire.Event {
	T := sim.Cfg.Checkpoints
	events := make([]wire.Event, 0, job.NumTasks()*(T+2))
	for i := range job.Tasks {
		t := &job.Tasks[i]
		events = append(events,
			wire.Event{Kind: wire.EventTaskStart, JobID: job.ID, TaskID: t.ID, Time: t.Start},
			wire.Event{Kind: wire.EventTaskFinish, JobID: job.ID, TaskID: t.ID, Time: t.Start + t.Latency, Latency: t.Latency},
		)
		for k := 1; k <= T; k++ {
			tau := sim.TauRun(k)
			if t.Start > tau {
				continue // not yet dispatched at this tick
			}
			events = append(events, wire.Event{
				Kind:     wire.EventHeartbeat,
				JobID:    job.ID,
				TaskID:   t.ID,
				Time:     tau,
				Tick:     k,
				Features: job.ObservedFeatures(i, k),
			})
		}
	}
	// The close timestamp must not precede any emitted event: the final
	// tick's horizon makespan*T/T can round a ulp above the makespan itself,
	// so close at the later of the two.
	closeAt := job.Makespan()
	if last := sim.TauRun(T); last > closeAt {
		closeAt = last
	}
	events = append(events, wire.Event{Kind: wire.EventJobFinish, JobID: job.ID, Time: closeAt})
	sortEvents(events)
	return events
}

// sortEvents orders a stream by time with a deterministic lifecycle
// tie-break: at equal timestamps a task's start precedes its observations,
// observations precede completions, and job-finish comes last.
func sortEvents(events []wire.Event) {
	sort.SliceStable(events, func(a, b int) bool {
		ea, eb := &events[a], &events[b]
		if ea.Time != eb.Time {
			return ea.Time < eb.Time
		}
		if ea.Kind != eb.Kind {
			return kindOrder(ea.Kind) < kindOrder(eb.Kind)
		}
		if ea.TaskID != eb.TaskID {
			return ea.TaskID < eb.TaskID
		}
		return ea.Tick < eb.Tick
	})
}

func kindOrder(k wire.EventKind) int {
	switch k {
	case wire.EventTaskStart:
		return 0
	case wire.EventHeartbeat:
		return 1
	case wire.EventTaskFinish:
		return 2
	default: // EventJobFinish
		return 3
	}
}

// MergeStreams interleaves several jobs' streams into one global
// time-ordered feed, the traffic shape a shared serving deployment sees.
func MergeStreams(streams ...[]wire.Event) []wire.Event {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	merged := make([]wire.Event, 0, total)
	for _, s := range streams {
		merged = append(merged, s...)
	}
	sortEvents(merged)
	return merged
}
