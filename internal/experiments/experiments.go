// Package experiments orchestrates the paper's evaluation: it generates
// workloads, replays every method over every job under the online protocol,
// and renders the same rows and series reported in the paper's Table 3 and
// Figures 1-9. cmd/nurdbench and the repository benchmarks are thin wrappers
// over this package.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/simulator"
	"repro/internal/trace"
)

// TraceSpec describes one evaluation workload (one of the paper's two
// trace datasets).
type TraceSpec struct {
	// Label names the dataset in output ("Google" / "Alibaba").
	Label string
	// Gen configures the workload generator.
	Gen trace.GenConfig
	// NumJobs is how many jobs to evaluate.
	NumJobs int
}

// GoogleSpec returns the Google-like workload with n jobs.
func GoogleSpec(n int, seed uint64) TraceSpec {
	return TraceSpec{Label: "Google", Gen: trace.DefaultGoogleConfig(seed), NumJobs: n}
}

// AlibabaSpec returns the Alibaba-like workload with n jobs.
func AlibabaSpec(n int, seed uint64) TraceSpec {
	return TraceSpec{Label: "Alibaba", Gen: trace.DefaultAlibabaConfig(seed ^ 0xa11baba), NumJobs: n}
}

// MethodResult aggregates one method's replay over all jobs of a spec.
type MethodResult struct {
	// Name is the Table 3 row label.
	Name string
	// PerJob holds final accuracy rates per job.
	PerJob []metrics.Rates
	// PerCheckpointF1[j][k] is job j's cumulative F1 after checkpoint k+1.
	PerCheckpointF1 [][]float64
	// Plans[j] maps task ID -> elapsed runtime at prediction, feeding the
	// scheduling experiments.
	Plans []sched.Plan
}

// Avg returns the macro-averaged rates over jobs (the Table 3 row).
func (m *MethodResult) Avg() metrics.Rates { return metrics.MacroAverage(m.PerJob) }

// AvgF1At returns the job-averaged F1 after checkpoint k (1-based).
func (m *MethodResult) AvgF1At(k int) float64 {
	if len(m.PerCheckpointF1) == 0 {
		return 0
	}
	s := 0.0
	for _, f1s := range m.PerCheckpointF1 {
		s += f1s[k-1]
	}
	return s / float64(len(m.PerCheckpointF1))
}

// Evaluation holds the full accuracy pass for one workload; the scheduling
// figures reuse its plans without re-running predictions.
type Evaluation struct {
	Spec    TraceSpec
	SimCfg  simulator.Config
	Jobs    []*trace.Job
	Sims    []*simulator.Sim
	Methods []*MethodResult
	Seed    uint64
}

// UnitSeed derives the predictor seed for one (job, method) evaluation unit
// from the master seed; ji and mi are the job's and method's indices in the
// evaluation. Exported so out-of-harness replays of a single method (the
// serving equivalence tests) can reproduce the exact predictor a full Run
// would construct.
func UnitSeed(seed uint64, ji, mi int) uint64 {
	return seed + uint64(ji)*1013904223 + uint64(mi)*2654435761
}

// Run replays all methods over all jobs of the spec. Jobs×methods run in
// parallel across cores; results are deterministic in the seed regardless of
// scheduling.
func Run(spec TraceSpec, factories []predictor.Factory, simCfg simulator.Config, seed uint64) (*Evaluation, error) {
	gen, err := trace.NewGenerator(spec.Gen)
	if err != nil {
		return nil, err
	}
	jobs := gen.Jobs(spec.NumJobs)
	sims := make([]*simulator.Sim, len(jobs))
	for i, j := range jobs {
		s, err := simulator.New(j, simCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: job %d: %w", j.ID, err)
		}
		sims[i] = s
	}
	ev := &Evaluation{Spec: spec, SimCfg: simCfg, Jobs: jobs, Sims: sims, Seed: seed}
	for _, f := range factories {
		ev.Methods = append(ev.Methods, &MethodResult{
			Name:            f.Name,
			PerJob:          make([]metrics.Rates, len(jobs)),
			PerCheckpointF1: make([][]float64, len(jobs)),
			Plans:           make([]sched.Plan, len(jobs)),
		})
	}

	type unit struct{ mi, ji int }
	units := make(chan unit)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range units {
				f := factories[u.mi]
				s := sims[u.ji]
				p := f.New(s, UnitSeed(seed, u.ji, u.mi))
				res, err := simulator.Evaluate(s, p)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("experiments: %s on job %d: %w", f.Name, s.Job.ID, err)
					}
					mu.Unlock()
					continue
				}
				mr := ev.Methods[u.mi]
				mr.PerJob[u.ji] = metrics.RatesOf(res.Final)
				f1s := make([]float64, len(res.PerCheckpoint))
				for k, c := range res.PerCheckpoint {
					f1s[k] = c.F1()
				}
				mr.PerCheckpointF1[u.ji] = f1s
				plan := make(sched.Plan, len(res.PredictedAt))
				for id, k := range res.PredictedAt {
					// Elapsed runtime of the task when flagged.
					e := s.TauRun(k) - s.Job.Tasks[id].Start
					if e < 0 {
						e = 0
					}
					plan[id] = e
				}
				mr.Plans[u.ji] = plan
			}
		}()
	}
	for mi := range factories {
		for ji := range jobs {
			units <- unit{mi, ji}
		}
	}
	close(units)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return ev, nil
}

// Table3 renders the paper's Table 3 for a set of evaluations (one per
// trace), with methods as rows and TPR/FPR/FNR/F1 per trace as columns.
func Table3(evals []*Evaluation) string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("%-10s", "Method"))
	for _, ev := range evals {
		b.WriteString(fmt.Sprintf(" | %s TPR  FPR  FNR  F1  ", ev.Spec.Label))
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 10+len(evals)*30) + "\n")
	if len(evals) == 0 {
		return b.String()
	}
	for mi := range evals[0].Methods {
		name := evals[0].Methods[mi].Name
		b.WriteString(fmt.Sprintf("%-10s", name))
		for _, ev := range evals {
			r := ev.Methods[mi].Avg()
			b.WriteString(fmt.Sprintf(" | %11.2f %.2f %.2f %.2f", r.TPR, r.FPR, r.FNR, r.F1))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// BestBaselineF1 returns the best F1 among all methods except the named
// ones (used to report NURD's margin over the best baseline).
func BestBaselineF1(ev *Evaluation, exclude ...string) (string, float64) {
	ex := map[string]bool{}
	for _, e := range exclude {
		ex[e] = true
	}
	bestName, bestF1 := "", -1.0
	for _, m := range ev.Methods {
		if ex[m.Name] {
			continue
		}
		if f1 := m.Avg().F1; f1 > bestF1 {
			bestF1 = f1
			bestName = m.Name
		}
	}
	return bestName, bestF1
}

// TimelineSeries renders Figures 2/3: per-method average F1 at each
// normalized time checkpoint.
func TimelineSeries(ev *Evaluation) string {
	var b strings.Builder
	T := ev.SimCfg.Checkpoints
	b.WriteString(fmt.Sprintf("%-10s", "Method"))
	for k := 1; k <= T; k++ {
		b.WriteString(fmt.Sprintf(" %5.1f", float64(k)/float64(T)))
	}
	b.WriteString("\n")
	for _, m := range ev.Methods {
		b.WriteString(fmt.Sprintf("%-10s", m.Name))
		for k := 1; k <= T; k++ {
			b.WriteString(fmt.Sprintf(" %5.2f", m.AvgF1At(k)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Reduction computes per-method average JCT reduction percentages for a
// given machine count (0 = unlimited, Figures 4/5; m > 0, one column of
// Figures 6/7).
func Reduction(ev *Evaluation, machines int) ([]string, []float64, error) {
	names := make([]string, len(ev.Methods))
	out := make([]float64, len(ev.Methods))
	for mi, m := range ev.Methods {
		names[mi] = m.Name
		total := 0.0
		for ji, s := range ev.Sims {
			lat := s.Job.Latencies()
			base := sched.JCT(lat, machines)
			pool := sched.SubThresholdPool(lat, s.TauStra())
			mit, err := sched.Mitigated(lat, m.Plans[ji], pool, sched.Config{
				Machines: machines,
				Seed:     ev.Seed + uint64(ji)*7 + uint64(mi)*13,
			})
			if err != nil {
				return nil, nil, err
			}
			total += sched.ReductionPct(base, mit)
		}
		out[mi] = total / float64(len(ev.Sims))
	}
	return names, out, nil
}

// MachineSweep computes Figures 6/7: reductions[mi][ci] for each method and
// machine count.
func MachineSweep(ev *Evaluation, machineCounts []int) ([]string, [][]float64, error) {
	names := make([]string, len(ev.Methods))
	out := make([][]float64, len(ev.Methods))
	for mi := range ev.Methods {
		names[mi] = ev.Methods[mi].Name
		out[mi] = make([]float64, len(machineCounts))
	}
	for ci, m := range machineCounts {
		_, red, err := Reduction(ev, m)
		if err != nil {
			return nil, nil, err
		}
		for mi := range red {
			out[mi][ci] = red[mi]
		}
	}
	return names, out, nil
}

// AverageOverMachines collapses a MachineSweep into Figures 8/9.
func AverageOverMachines(sweep [][]float64) []float64 {
	out := make([]float64, len(sweep))
	for mi, row := range sweep {
		s := 0.0
		for _, v := range row {
			s += v
		}
		out[mi] = s / float64(len(row))
	}
	return out
}

// RenderBars formats a name->value series as an aligned text bar chart
// (used for Figures 4/5/8/9).
func RenderBars(names []string, values []float64) string {
	var b strings.Builder
	maxV := 0.0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	for i, n := range names {
		bar := ""
		if maxV > 0 && values[i] > 0 {
			bar = strings.Repeat("#", int(values[i]/maxV*40+0.5))
		}
		b.WriteString(fmt.Sprintf("%-10s %6.1f%% %s\n", n, values[i], bar))
	}
	return b.String()
}

// RenderSweep formats a machine sweep as a method x machines table.
func RenderSweep(names []string, machineCounts []int, sweep [][]float64) string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("%-10s", "Method"))
	for _, m := range machineCounts {
		b.WriteString(fmt.Sprintf(" %6d", m))
	}
	b.WriteString("\n")
	for mi, n := range names {
		b.WriteString(fmt.Sprintf("%-10s", n))
		for ci := range machineCounts {
			b.WriteString(fmt.Sprintf(" %5.1f%%", sweep[mi][ci]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig1 generates the latency-distribution illustration: one job per
// profile, rendered as normalized-latency histograms with the p90 threshold
// and half-max markers (the paper's Figure 1).
func Fig1(mode trace.Mode, seed uint64) (string, error) {
	var out strings.Builder
	for _, prof := range []trace.Profile{trace.ProfileFar, trace.ProfileNear} {
		cfg := trace.DefaultGoogleConfig(seed)
		if mode == trace.ModeAlibaba {
			cfg = trace.DefaultAlibabaConfig(seed)
		}
		if prof == trace.ProfileFar {
			cfg.FarFraction = 1
		} else {
			cfg.FarFraction = 0
		}
		cfg.MinTasks, cfg.MaxTasks = 300, 300
		gen, err := trace.NewGenerator(cfg)
		if err != nil {
			return "", err
		}
		job := gen.Next()
		lat := job.Latencies()
		sort.Float64s(lat)
		maxL := lat[len(lat)-1]
		p90 := lat[int(0.9*float64(len(lat)-1))]
		norm := make([]float64, len(lat))
		for i, l := range lat {
			norm[i] = l / maxL
		}
		out.WriteString(fmt.Sprintf("Job profile=%s  p90/max=%.2f  (threshold %s half of max)\n",
			prof, p90/maxL, cmpWord(p90/maxL < 0.5)))
		out.WriteString(renderHistogram(norm, 20, p90/maxL))
		out.WriteString("\n")
	}
	return out.String(), nil
}

func cmpWord(below bool) string {
	if below {
		return "BELOW"
	}
	return "ABOVE"
}

// renderHistogram draws a horizontal text histogram of values in [0,1],
// marking the bin containing the threshold.
func renderHistogram(vals []float64, bins int, threshold float64) string {
	counts := make([]int, bins)
	for _, v := range vals {
		b := int(v * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	maxC := 1
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range counts {
		lo := float64(i) / float64(bins)
		hi := float64(i+1) / float64(bins)
		mark := "  "
		if threshold >= lo && threshold < hi {
			mark = "<-p90"
		}
		b.WriteString(fmt.Sprintf("  %4.2f-%4.2f |%-40s| %4d %s\n",
			lo, hi, strings.Repeat("*", c*40/maxC), c, mark))
	}
	return b.String()
}
