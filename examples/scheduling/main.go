// Scheduling scenario: end-to-end straggler mitigation. NURD's online
// predictions drive the paper's two schedulers — Algorithm 2 (unlimited
// machines: terminate-and-relaunch immediately) and Algorithm 3 (m machines:
// relaunch when one frees) — and the example reports the job-completion-time
// reduction for each, a miniature of Figures 4 and 6.
//
//	go run ./examples/scheduling
package main

import (
	"fmt"
	"log"

	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/simulator"
	"repro/internal/trace"
)

func main() {
	gen, err := trace.NewGenerator(trace.DefaultGoogleConfig(11))
	if err != nil {
		log.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		job := gen.Next()
		sim, err := simulator.New(job, simulator.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		res, err := simulator.Evaluate(sim, predictor.NewNURD())
		if err != nil {
			log.Fatal(err)
		}
		// Convert flag checkpoints to elapsed runtimes: the scheduler
		// terminates a task after it has run that long.
		plan := make(sched.Plan, len(res.PredictedAt))
		for id, k := range res.PredictedAt {
			e := sim.TauRun(k) - job.Tasks[id].Start
			if e < 0 {
				e = 0
			}
			plan[id] = e
		}
		lat := job.Latencies()
		pool := sched.SubThresholdPool(lat, sim.TauStra())

		fmt.Printf("job %d (%d tasks, %d predicted stragglers, F1=%.2f)\n",
			job.ID, job.NumTasks(), len(plan), res.Final.F1())

		// Algorithm 2: unlimited machines.
		base := sched.JCT(lat, 0)
		mit, err := sched.Mitigated(lat, plan, pool, sched.Config{Machines: 0, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  unlimited machines: JCT %8.1f -> %8.1f  (%.1f%% reduction)\n",
			base, mit, sched.ReductionPct(base, mit))

		// Algorithm 3: fewer machines than tasks.
		for _, m := range []int{50, 100, 200} {
			base := sched.JCT(lat, m)
			mit, err := sched.Mitigated(lat, plan, pool, sched.Config{Machines: m, Seed: 7})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %4d machines:      JCT %8.1f -> %8.1f  (%.1f%% reduction)\n",
				m, base, mit, sched.ReductionPct(base, mit))
		}
	}
}
