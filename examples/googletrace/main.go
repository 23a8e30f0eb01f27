// Google-trace scenario: a small head-to-head of NURD against the paper's
// strongest baselines (GBTR, LOF, PU-EN, Grabit, Wrangler) on Google-like
// 15-feature jobs — a miniature of Table 3's Google column.
//
//	go run ./examples/googletrace
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/simulator"
)

func main() {
	// The rows are AllFactories' own, so each method is built as in
	// Table 3: the NURD rows take the dataset's confirmation requirement.
	keep := map[string]bool{"GBTR": true, "LOF": true, "PU-EN": true, "Grabit": true, "Wrangler": true, "NURD": true}
	var facs []predictor.Factory
	for _, f := range predictor.AllFactories() {
		if keep[f.Name] {
			facs = append(facs, f)
		}
	}
	ev, err := experiments.Run(experiments.GoogleSpec(8, 2024), facs, simulator.DefaultConfig(), 2024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Google-like workload, 8 jobs, averaged rates:")
	fmt.Println(experiments.Table3([]*experiments.Evaluation{ev}))
	fmt.Println("F1 over normalized time (how early each method catches stragglers):")
	fmt.Println(experiments.TimelineSeries(ev))
}
