// Alibaba-trace scenario: the low-dimensional regime — only 4 monitored
// features per instance (cpu_avg, cpu_max, mem_avg, mem_max), where every
// method's accuracy drops and the margin between NURD and the baselines
// narrows, as in the paper's Alibaba column.
//
//	go run ./examples/alibabatrace
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/simulator"
	"repro/internal/trace"
)

func main() {
	fmt.Println("Alibaba instance features (paper Table 2):")
	for _, f := range trace.AlibabaFeatures {
		fmt.Println("  ", f)
	}
	fmt.Println()

	// The rows are AllFactories' own, so each method is built as in
	// Table 3: the NURD rows take the dataset's confirmation requirement.
	keep := map[string]bool{"GBTR": true, "IFOREST": true, "PU-BG": true, "CoxPH": true, "NURD-NC": true, "NURD": true}
	var facs []predictor.Factory
	for _, f := range predictor.AllFactories() {
		if keep[f.Name] {
			facs = append(facs, f)
		}
	}
	ev, err := experiments.Run(experiments.AlibabaSpec(8, 99), facs, simulator.DefaultConfig(), 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Alibaba-like workload, 8 jobs, averaged rates:")
	fmt.Println(experiments.Table3([]*experiments.Evaluation{ev}))
}
