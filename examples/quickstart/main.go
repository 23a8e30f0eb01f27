// Quickstart: generate one datacenter job, replay it online through NURD,
// and print the predicted straggler set next to the ground truth.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/predictor"
	"repro/internal/simulator"
	"repro/internal/trace"
)

func main() {
	// 1. A synthetic Google-like job: ~300 tasks, 15 monitored features,
	// p90-defined stragglers.
	gen, err := trace.NewGenerator(trace.GenConfig{
		Mode:        trace.ModeGoogle,
		MinTasks:    300,
		MaxTasks:    300,
		FarFraction: 1, // bimodal latency: clear straggler population
		Seed:        7,
	})
	if err != nil {
		log.Fatal(err)
	}
	job := gen.Next()

	// 2. An online replay: 10 checkpoints, prediction starts once 4% of
	// tasks have finished, tau_stra = p90 latency.
	sim, err := simulator.New(job, simulator.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %d: %d tasks, %d true stragglers, tau_stra=%.1f\n",
		job.ID, job.NumTasks(), sim.NumStragglers(), sim.TauStra())

	// 3. NURD, with the paper's hyperparameters.
	nurd := predictor.NewNURD()
	res, err := simulator.Evaluate(sim, nurd)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Results.
	var predicted []int
	for id := range res.PredictedAt {
		predicted = append(predicted, id)
	}
	sort.Ints(predicted)
	fmt.Printf("predicted straggler set (%d tasks): %v\n", len(predicted), predicted)
	c := res.Final
	fmt.Printf("TPR=%.2f FPR=%.2f F1=%.2f\n", c.TPR(), c.FPR(), c.F1())
	if m := nurd.Model(); m != nil {
		fmt.Printf("learned calibration: rho=%.2f delta=%.2f\n", m.Rho(), m.Delta())
	}
}
