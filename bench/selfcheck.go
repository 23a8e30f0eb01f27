package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bm benchmarkFile
	if err := json.Unmarshal(data, &bm); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bm, nil
}

// selfcheckRuns is the number of runs in each of the self-check's two sets:
// the driver's count.
const selfcheckRuns = 10

// startingBounds are the issue's bounds, which measurement may widen and
// never tightens; maxBound is the widest the driver accepts (it is why
// setup_s starts at 0.25 and not the issue's 0.30, and macro_f1's 0.005
// absolute on an F1 of 0.53 is 0.01 as a share).
var startingBounds = map[string]float64{"setup_s": 0.25, "events_per_s": 0.10, "cpu_us_per_event": 0.10, "query_us": 0.10, "macro_f1": 0.01}

const maxBound = 0.25

// selfCheck measures the benchmark's own noise the way the driver judges it:
// two interleaved sets (A,B,A,B,...) of runs of this same binary, each run a
// fresh process with another seed. For every workload and end-to-end metric
// it prints both sets' medians, how far apart they are, and each set's
// interquartile spread as a share of its median; it fails if a gap or a
// spread exceeds the metric's bound in BENCHMARK.json (setup_s is judged on
// the gap alone, as the driver does). The table is committed as NOISE.md.
func selfCheck(o options) error {
	bm, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	sets[0], sets[1] = map[key][]float64{}, map[key][]float64{}
	for _, w := range names {
		for i := 0; i < selfcheckRuns; i++ {
			for s := range sets {
				seed := o.seed + uint64(i)
				keep := filepath.Join(o.out, fmt.Sprintf("selfcheck-%s-%c-%d.txt", w, 'A'+s, seed))
				res, err := runChild(exe, w, seed, bm.RunSeconds, keep)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				for name, m := range res.Metrics {
					k := key{w, name}
					sets[s][k] = append(sets[s][k], m.Value)
				}
			}
		}
	}

	fmt.Printf("Two interleaved sets of %d runs each (seeds %d..%d, %d s per run).\n\n",
		selfcheckRuns, o.seed, o.seed+uint64(selfcheckRuns)-1, bm.RunSeconds)
	fmt.Println("| workload | metric | unit | median A | median B | gap | spread A | spread B | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	bad := 0
	maxGap, maxSpread := map[string]float64{}, map[string]float64{}
	for _, w := range names {
		for _, em := range bm.EndToEnd {
			a, b := sets[0][key{w, em.Name}], sets[1][key{w, em.Name}]
			if len(a) != selfcheckRuns || len(b) != selfcheckRuns {
				return fmt.Errorf("%s: %s reported %d+%d times in %d+%d runs", w, em.Name, len(a), len(b), selfcheckRuns, selfcheckRuns)
			}
			ma, mb := median(a), median(b)
			gap := math.Abs(mb-ma) / ma
			sa, sb := spread(a), spread(b)
			maxGap[em.Name] = math.Max(maxGap[em.Name], gap)
			maxSpread[em.Name] = math.Max(maxSpread[em.Name], math.Max(sa, sb))
			verdict := "ok"
			if gap > em.Bound || (em.Name != "setup_s" && math.Max(sa, sb) > em.Bound) {
				verdict = "OVER"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w, em.Name, em.Unit, ma, mb, 100*gap, 100*sa, 100*sb, 100*em.Bound, verdict)
		}
	}

	// The bound the rule gives each metric: never below the issue's starting
	// value, twice the largest gap between same-code sets, three times the
	// largest spread within a set (the driver wants a spread under a third of
	// the bound; setup_s is judged on its gap alone), and the driver's cap.
	fmt.Println("\n| metric | largest gap | largest spread | starting bound | bound by rule | committed |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, em := range bm.EndToEnd {
		rule := math.Max(startingBounds[em.Name], 2*maxGap[em.Name])
		if em.Name != "setup_s" {
			rule = math.Max(rule, 3*maxSpread[em.Name])
		}
		rule = math.Min(rule, maxBound)
		fmt.Printf("| %s | %.2f%% | %.2f%% | %.3g | %.3g | %.3g |\n",
			em.Name, 100*maxGap[em.Name], 100*maxSpread[em.Name], startingBounds[em.Name], rule, em.Bound)
	}
	if bad > 0 {
		return fmt.Errorf("%d workload-metric pairs disagree by more than their bound", bad)
	}
	return nil
}

// runChild runs one workload once in a fresh process, keeps what it printed
// (every pass's events/s among it) in the file keep, and parses the result
// line.
func runChild(exe, workload string, seed uint64, seconds int, keep string) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(keep, out, 0o644); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return &res, nil
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(xs, n=4)
// gives: the driver's measure.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}
