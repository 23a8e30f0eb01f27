package serve

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/simulator"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// refJobEvents is the sort-based stream builder JobEvents replaced, kept as
// its oracle: every event appended in task order, then one stable sort.
func refJobEvents(job *trace.Job, sim *simulator.Sim) []wire.Event {
	T := sim.Cfg.Checkpoints
	var events []wire.Event
	for i := range job.Tasks {
		t := &job.Tasks[i]
		events = append(events,
			wire.Event{Kind: wire.EventTaskStart, JobID: job.ID, TaskID: t.ID, Time: t.Start},
			wire.Event{Kind: wire.EventTaskFinish, JobID: job.ID, TaskID: t.ID, Time: t.Start + t.Latency, Latency: t.Latency},
		)
		for k := 1; k <= T; k++ {
			tau := sim.TauRun(k)
			if t.Start > tau {
				continue
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
	closeAt := job.Makespan()
	if last := sim.TauRun(T); last > closeAt {
		closeAt = last
	}
	events = append(events, wire.Event{Kind: wire.EventJobFinish, JobID: job.ID, Time: closeAt})
	refSortEvents(events)
	return events
}

// refSortEvents is the stable sort both refJobEvents and the old
// MergeStreams ended with.
func refSortEvents(events []wire.Event) {
	kindOrder := func(k wire.EventKind) int {
		switch k {
		case wire.EventTaskStart:
			return 0
		case wire.EventHeartbeat:
			return 1
		case wire.EventTaskFinish:
			return 2
		default:
			return 3
		}
	}
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

// oracleJob generates the seed's job: both trace modes, both profiles and
// 10-2000 tasks as the seed varies.
func oracleJob(t *testing.T, seed uint64) *trace.Job {
	t.Helper()
	mode := []trace.Mode{trace.ModeGoogle, trace.ModeAlibaba}[seed%2]
	profile := []trace.Profile{trace.ProfileFar, trace.ProfileNear}[seed/2%2]
	ntasks := 10 + stats.NewRNG(seed).Intn(390)
	if seed%25 == 0 {
		ntasks = 2000
	}
	job, err := trace.GenJob(mode, seed+1, seed, ntasks, profile)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func newSim(t *testing.T, job *trace.Job) *simulator.Sim {
	t.Helper()
	sim, err := simulator.New(job, simulator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// craftTies rewrites a generated job so that the stream's tie-breaks all
// fire: the job ends at a power of two, so the last finish equals tau_T
// exactly; one task starts exactly at tau_3 and another finishes exactly at
// tau_5; four tasks share a start time, one of which is another task's
// finish time; and the task IDs run opposite to the task order.
func craftTies(t *testing.T, job *trace.Job) *simulator.Sim {
	t.Helper()
	n := len(job.Tasks)
	end := 1.0
	for end < job.Makespan() {
		end *= 2
	}
	last := &job.Tasks[n-1]
	last.Start, last.Latency = end/2, end/2
	sim := newSim(t, job)
	tau3, tau5 := sim.TauRun(3), sim.TauRun(5)
	job.Tasks[0].Start = tau3
	job.Tasks[0].Latency = (end - tau3) / 4
	job.Tasks[1].Start, job.Tasks[1].Latency = tau5/2, tau5/2
	shared := job.Tasks[2].Start
	for i := 3; i < 6; i++ {
		job.Tasks[i].Start = shared
		job.Tasks[i].Latency = min(job.Tasks[i].Latency, (end-shared)/2)
	}
	job.Tasks[6].Start, job.Tasks[6].Latency = shared/2, shared/2
	for i := range job.Tasks {
		job.Tasks[i].ID = n - 1 - i
	}
	sim = newSim(t, job)
	T := sim.Cfg.Checkpoints
	switch {
	case sim.TauRun(3) != tau3 || sim.TauRun(5) != tau5:
		t.Fatal("crafting moved the horizons")
	case sim.TauRun(T) != job.Makespan():
		t.Fatalf("tau_T %v is not the last finish %v", sim.TauRun(T), job.Makespan())
	case job.Tasks[1].Start+job.Tasks[1].Latency != tau5:
		t.Fatal("task 1 does not finish at tau_5")
	case job.Tasks[6].Start+job.Tasks[6].Latency != shared:
		t.Fatal("task 6 does not finish at the shared start")
	}
	return sim
}

// TestJobEventsMatchesSortedReference: the merge-built stream is the old
// sort-built one, features included, over both trace modes and profiles,
// 10-2000 tasks, and jobs crafted so that starts, heartbeats and finishes
// tie.
func TestJobEventsMatchesSortedReference(t *testing.T) {
	seeds := 120
	if testing.Short() || raceEnabled {
		seeds = 24 // the builder is single-goroutine; the detector adds nothing
	}
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		for _, crafted := range []bool{false, true} {
			job := oracleJob(t, seed)
			var sim *simulator.Sim
			if crafted {
				sim = craftTies(t, job)
			} else {
				sim = newSim(t, job)
			}
			got, want := JobEvents(job, sim), refJobEvents(job, sim)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d crafted=%v (%d tasks): %s", seed, crafted, len(job.Tasks), firstDiff(got, want))
			}
		}
	}
}

func firstDiff(got, want []wire.Event) string {
	for i := range got {
		if i >= len(want) {
			break
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("event %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d events, want %d", len(got), len(want))
}

// TestMergeStreamsMatchesStableSort: the k-way merge is the old stable sort
// of the concatenated streams, including events that tie on every key
// across streams (a job's stream fed twice under two IDs goes first-fed
// first) and empty streams.
func TestMergeStreamsMatchesStableSort(t *testing.T) {
	seeds := 40
	if testing.Short() || raceEnabled {
		seeds = 8
	}
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		var streams [][]wire.Event
		for j := uint64(0); j < 1+seed%5; j++ {
			job := oracleJob(t, 1000+7*seed+j)
			if j%2 == 1 {
				craftTies(t, job)
			}
			streams = append(streams, JobEvents(job, newSim(t, job)))
		}
		twin := append([]wire.Event(nil), streams[0]...)
		for i := range twin {
			twin[i].JobID += 1 << 32
		}
		streams = append(streams, nil, twin)
		var want []wire.Event
		for _, s := range streams {
			want = append(want, s...)
		}
		refSortEvents(want)
		if got := MergeStreams(streams...); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, %d streams: %s", seed, len(streams), firstDiff(got, want))
		}
	}
	if got := MergeStreams(); len(got) != 0 {
		t.Fatalf("no streams merged into %d events", len(got))
	}
}
