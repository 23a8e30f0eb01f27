// Command nurdrun replays one trace CSV (see cmd/tracegen) through the
// Table 3 NURD and prints the online prediction log: per checkpoint, which
// tasks were newly flagged, plus the final confusion statistics. It is the
// one path that runs NURD on a job read from disk.
//
// Usage:
//
//	nurdrun -trace /tmp/traces/google-job-1.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/simulator"
	"repro/internal/trace"
)

func main() {
	var (
		path = flag.String("trace", "", "trace CSV written by tracegen (required)")
		seed = flag.Uint64("seed", 42, "RNG seed")
		ckpt = flag.Int("checkpoints", 10, "number of prediction checkpoints")
	)
	flag.Parse()
	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *path, *seed, *ckpt); err != nil {
		fmt.Fprintln(os.Stderr, "nurdrun:", err)
		os.Exit(1)
	}
}

// run replays the job at path through the Table 3 NURD: the same factory
// experiments.Run uses, so the confirmation requirement follows the job's
// schema (1 on the 4-feature Alibaba schema, 2 on Google's).
func run(w io.Writer, path string, seed uint64, checkpoints int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	job, err := trace.ReadCSV(f)
	if err != nil {
		return err
	}
	cfg := simulator.DefaultConfig()
	cfg.Checkpoints = checkpoints
	sim, err := simulator.New(job, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "job: %d tasks, tau_stra (p90 latency) = %.2f, %d true stragglers\n",
		job.NumTasks(), sim.TauStra(), sim.NumStragglers())

	_, fac, ok := predictor.FindFactory("NURD")
	if !ok {
		return fmt.Errorf("NURD factory not found")
	}
	p := fac.New(sim, seed)
	res, err := simulator.Evaluate(sim, p)
	if err != nil {
		return err
	}
	// Group flags by checkpoint for the log.
	byCk := make(map[int][]int)
	for id, k := range res.PredictedAt {
		byCk[k] = append(byCk[k], id)
	}
	truth := sim.Truth()
	for k := 1; k <= checkpoints; k++ {
		flagged := byCk[k]
		if len(flagged) == 0 {
			continue
		}
		fmt.Fprintf(w, "checkpoint %2d (t=%.1f): flagged %d task(s):", k, float64(k)/float64(checkpoints), len(flagged))
		for _, id := range flagged {
			mark := "FP"
			if truth[id] {
				mark = "TP"
			}
			fmt.Fprintf(w, " %d(%s)", id, mark)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, finalLine(res.Final))
	if np, ok := p.(*predictor.NURDPredictor); ok && np.Model() != nil {
		m := np.Model()
		fmt.Fprintf(w, "rho=%.3f delta=%.3f\n", m.Rho(), m.Delta())
	}
	return nil
}

// finalLine renders the end-of-job confusion statistics.
func finalLine(c metrics.Confusion) string {
	return fmt.Sprintf("final: TPR=%.2f FPR=%.2f FNR=%.2f F1=%.2f (%s)",
		c.TPR(), c.FPR(), c.FNR(), c.F1(), c.String())
}
