package serve

import (
	"cmp"
	"math"
	"slices"

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
//
// The stream is in send order: by Time; at equal times a start precedes a
// heartbeat, a heartbeat a finish, and the job-finish comes last; then by
// TaskID, then by Tick. The job's task IDs are distinct, as trace.GenJob's
// are, and its checkpoint horizons rise with the tick, as simulator.New's
// do. The stream is emitted in that order — a merge of the starts sorted by
// time, the finishes sorted by time and each tick's heartbeats in TaskID
// order — never sorted. Every heartbeat's features share one slab.
func JobEvents(job *trace.Job, sim *simulator.Sim) []wire.Event {
	T := sim.Cfg.Checkpoints
	n := job.NumTasks()
	b := streamBuilder{
		job:      job,
		starts:   make([]taskAt, n),
		finishes: make([]taskAt, n),
		byID:     make([]int, n),
	}
	for i := range job.Tasks {
		t := &job.Tasks[i]
		b.starts[i] = taskAt{at: t.Start, id: t.ID, i: i}
		b.finishes[i] = taskAt{at: t.Start + t.Latency, id: t.ID, i: i}
		b.byID[i] = i
	}
	slices.SortFunc(b.starts, taskAt.compare)
	slices.SortFunc(b.finishes, taskAt.compare)
	slices.SortFunc(b.byID, func(x, y int) int { return cmp.Compare(job.Tasks[x].ID, job.Tasks[y].ID) })

	// Size the stream and the feature slab: tick k observes every task
	// started by its horizon, a prefix of the starts.
	beats, slab := 0, 0
	for k, p, width := 1, 0, 0; k <= T; k++ {
		for tau := sim.TauRun(k); p < n && b.starts[p].at <= tau; p++ {
			width += len(job.Tasks[b.starts[p].i].Features)
		}
		beats += p
		slab += width
	}
	b.events = make([]wire.Event, 0, 2*n+beats+1)
	b.slab = make([]float64, slab)

	for k := 1; k <= T; k++ {
		tau := sim.TauRun(k)
		b.lifecycle(tau)
		b.heartbeats(k, tau)
	}
	b.lifecycle(math.Inf(1))
	// The close timestamp must not precede any emitted event: the final
	// tick's horizon makespan*T/T can round a ulp above the makespan itself,
	// so close at the later of the two.
	closeAt := job.Makespan()
	if last := sim.TauRun(T); last > closeAt {
		closeAt = last
	}
	return append(b.events, wire.Event{Kind: wire.EventJobFinish, JobID: job.ID, Time: closeAt})
}

// taskAt keys one task's start or finish for the merge in JobEvents.
type taskAt struct {
	at float64
	id int // TaskID
	i  int // index into the job's Tasks
}

func (a taskAt) compare(b taskAt) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// streamBuilder holds JobEvents' merge state: the sorted starts and
// finishes with a cursor into each, the tasks in TaskID order, the stream
// so far and the unfilled rest of the feature slab.
type streamBuilder struct {
	job              *trace.Job
	starts, finishes []taskAt
	si, fi           int
	byID             []int
	events           []wire.Event
	slab             []float64
}

// lifecycle appends, in order, every start at or before tau and every
// finish before it that is not yet emitted. A start precedes a finish at
// the same time.
func (b *streamBuilder) lifecycle(tau float64) {
	for {
		start := b.si < len(b.starts) && b.starts[b.si].at <= tau
		fin := b.fi < len(b.finishes) && b.finishes[b.fi].at < tau
		switch {
		case start && (!fin || b.starts[b.si].at <= b.finishes[b.fi].at):
			s := b.starts[b.si]
			b.si++
			b.events = append(b.events, wire.Event{Kind: wire.EventTaskStart, JobID: b.job.ID, TaskID: s.id, Time: s.at})
		case fin:
			f := b.finishes[b.fi]
			b.fi++
			b.events = append(b.events, wire.Event{Kind: wire.EventTaskFinish, JobID: b.job.ID, TaskID: f.id, Time: f.at, Latency: b.job.Tasks[f.i].Latency})
		default:
			return
		}
	}
}

// heartbeats appends tick k's observations, at its horizon tau, of every
// task started by then, in TaskID order.
func (b *streamBuilder) heartbeats(k int, tau float64) {
	for _, i := range b.byID {
		t := &b.job.Tasks[i]
		if t.Start > tau {
			continue // not yet dispatched at this tick
		}
		w := len(t.Features)
		b.events = append(b.events, wire.Event{
			Kind:     wire.EventHeartbeat,
			JobID:    b.job.ID,
			TaskID:   t.ID,
			Time:     tau,
			Tick:     k,
			Features: b.job.ObservedFeaturesInto(b.slab[:w:w], i, k),
		})
		b.slab = b.slab[w:]
	}
}

// MergeStreams interleaves several jobs' streams into one global
// time-ordered feed, the traffic shape a shared serving deployment sees.
// Each stream must already be in JobEvents' send order (by Time, then
// lifecycle kind, then TaskID, then Tick); the feed is in that order too,
// an event tying another on all four going to the earlier stream. That is
// the order a stable sort of the concatenated streams gives.
func MergeStreams(streams ...[]wire.Event) []wire.Event {
	return MergeRuns(streams, func(a, b *wire.Event) bool {
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		// The kinds are declared in lifecycle order: start, heartbeat,
		// finish, job-finish.
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.TaskID != b.TaskID {
			return a.TaskID < b.TaskID
		}
		return a.Tick < b.Tick
	})
}

// MergeRuns merges runs, each already ordered by before, into one slice
// ordered by it; an element that no other precedes goes before those that
// come from later runs. The result is what a stable sort of the
// concatenated runs gives, built in n·log(len(runs)) comparisons and n
// copies. MergeStreams and workload.Synthesize use it.
func MergeRuns[T any](runs [][]T, before func(a, b *T) bool) []T {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]T, 0, total)
	// heap holds the indices of the runs not yet exhausted, as a binary
	// min-heap on (the run's head, the run's index); pos[r] is run r's head.
	pos := make([]int, len(runs))
	heap := make([]int, 0, len(runs))
	less := func(x, y int) bool {
		hx, hy := &runs[x][pos[x]], &runs[y][pos[y]]
		if before(hx, hy) {
			return true
		}
		return !before(hy, hx) && x < y
	}
	down := func(j int) {
		for {
			c := 2*j + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[j]) {
				return
			}
			heap[j], heap[c] = heap[c], heap[j]
			j = c
		}
	}
	for r := range runs {
		if len(runs[r]) > 0 {
			heap = append(heap, r)
		}
	}
	for j := len(heap)/2 - 1; j >= 0; j-- {
		down(j)
	}
	for len(heap) > 0 {
		r := heap[0]
		out = append(out, runs[r][pos[r]])
		if pos[r]++; pos[r] == len(runs[r]) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return out
}
