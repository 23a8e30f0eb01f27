// Command bench is the repository's benchmark: a closed-loop, in-process
// serving benchmark over four workloads that each stress different layers
// of the NURD stack. See README.md for the workloads, the metrics and why
// they are measured the way they are.
//
// The package is a module of its own (go.mod beside this file); run.sh
// builds it into the checkout's .bench_build and runs it from the root:
//
//	bash bench/run.sh --workload scratch_ingest --seed 42 --seconds 25 --trace 0
//	bash bench/run.sh --workload scratch_ingest --trace 1   # per-layer metrics
//	bash bench/run.sh                                       # all four workloads
//	bash bench/run.sh --selfcheck                           # noise table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

const (
	specPath = "bench/specs/mixed.json"
	outDir   = "bench/out"
	// setups is how often a run sets up; setup_s is the median.
	setups = 3
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	spec     string // workload spec file
	out      string // where a run writes: its WAL directories, the traced run's spans
	seed     uint64
	seconds  float64
	trace    bool
	setups   int
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var trace int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "one of scratch_ingest, warm_ingest, wire_wal_ingest, crash_recover; empty runs all four")
	flag.Uint64Var(&o.seed, "seed", 42, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 25, "how long a run measures: it starts passes until that much time has gone by")
	flag.IntVar(&trace, "trace", 0, "1: one traced pass and the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run two interleaved sets of runs of this same code and print how well they agree")
	flag.Parse()
	o.spec, o.out, o.trace, o.setups = specPath, outDir, trace != 0, setups
	if o.trace {
		o.setups = 1 // a traced run does not report setup_s
	}

	if selfcheck {
		return selfCheck(o)
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	failed := 0
	for _, name := range names {
		o.workload = name
		res, err := runWorkload(o)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		failed += res.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// runWorkload sets one workload up, measures it and prints its metrics.
func runWorkload(o options) (*result, error) {
	// One feeder on one processor: the box is a few shared cores of a busy
	// host, and a pass that needs two of them undisturbed at once finds them
	// so less often (README.md, design notes).
	runtime.GOMAXPROCS(1)

	// Every WAL directory of the run lives under the output directory,
	// inside the checkout, and goes when the run ends.
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	walRoot, err := os.MkdirTemp(o.out, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walRoot)

	var r *runner
	var setupTimes []float64
	for i := 0; i < o.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if r, err = setUp(o, walRoot); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	fmt.Printf("%s: seed %d, %d jobs, %d events, fingerprint %016x, WAL directories under %s\n",
		r.name, o.seed, len(r.in.jobs), r.in.events, r.in.fingerprint, walRoot)

	res := &result{Metrics: map[string]metric{}}
	if o.trace {
		if err := tracedRun(r, o.out, res); err != nil {
			return nil, err
		}
	} else {
		if err := timedRun(r, o.seconds, res); err != nil {
			return nil, err
		}
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
		res.Metrics["macro_f1"] = metric{r.macroF1, "f1"}
	}
	res.Correct = res.Failed == 0
	printMetrics(res)
	return res, nil
}

// setUp does everything a run needs before its first timed pass: synthesis,
// pre-encoding, and the reference run, which every later pass must repeat,
// which on crash_recover also builds the crash image, and which warms up.
func setUp(o options, walRoot string) (*runner, error) {
	in, err := loadInputs(o.spec, o.seed)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(o.workload, in, walRoot)
	if err != nil {
		return nil, err
	}
	return r, r.reference()
}

// timedRun repeats identical passes until the run's time is up and reports
// each end-to-end metric from the best time of every chunk of a pass: the sum,
// over a pass's chunks (a job's events on one side of the cut, a recovery,
// 240 queries), of the fastest that chunk ran in any pass. The box's
// interference (neighbours on a shared host) comes and goes within a pass and
// stays for minutes, slows what it touches by a tenth to a half, process CPU
// time included, and never speeds anything up. The noise is one-sided, so a
// best time is the closest a run comes to the code's speed on an undisturbed
// box, and a chunk of tens of milliseconds finds a quiet moment far more often
// than a whole pass does (NOISE.md). A regression slows every pass, and so
// every chunk's best.
func timedRun(r *runner, seconds float64, res *result) error {
	var ingest, query []chunk
	var perSec []float64
	var p passResult
	for t0 := time.Now(); len(perSec) == 0 || time.Since(t0).Seconds() < seconds; {
		runtime.GC() // untimed, so every pass starts from the same heap
		var err error
		if p, err = r.pass(nil); err != nil {
			return err
		}
		res.Attempted += p.ops
		res.Failed += p.failed
		ingest, query = keepBest(ingest, p.ingest), keepBest(query, p.query)
		perSec = append(perSec, float64(p.count)/total(p.ingest).wall.Seconds())
	}
	fmt.Printf("%s: %d timed passes of %d ingest and %d query chunks, events/s per pass: %.0f\n",
		r.name, len(perSec), len(ingest), len(query), perSec)
	in, q := total(ingest), total(query)
	res.Metrics["events_per_s"] = metric{float64(p.count) / in.wall.Seconds(), "1/s"}
	res.Metrics["cpu_us_per_event"] = metric{float64(in.cpu.Nanoseconds()) / 1e3 / float64(p.count), "us"}
	res.Metrics["query_us"] = metric{float64(q.wall.Nanoseconds()) / 1e3 / float64(p.queries), "us"}
	return nil
}

func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  %-40s %14d\n  %-40s %14d\n", "ops", res.Attempted, "failed", res.Failed)
}
