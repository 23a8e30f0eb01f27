// Command nurdload is the open-loop latency-percentile load harness: it
// expands a workload scenario (internal/workload) into its deterministic
// send timeline and fires it at a running serving front end on the
// timeline's ABSOLUTE schedule, regardless of response latency. Late sends
// are recorded as queue delay — never rescheduled — so the reported
// percentiles include every millisecond a real client would have waited (no
// coordinated omission).
//
// nurdload is only the client: -url names a front end started elsewhere
// (nurdserve -listen), configured by that server's own flags. Every scenario
// numbers its jobs 1..N, so each run needs a fresh server — a second run on
// the same one is refused as duplicate registrations, and any unexpected
// error fails the run (exit 1).
//
// Usage:
//
//	nurdserve -listen 127.0.0.1:8080 &
//	nurdload -list                                                       # scenario catalog
//	nurdload -scenario steady -speedup 8 -url http://127.0.0.1:8080      # human summary + JSON
//	nurdload -scenario examples/scenarios/burst.json -url http://127.0.0.1:8080
//	nurdload -scenario smoke -speedup 4 -max-rate-gap 0.2 -url http://127.0.0.1:8080   # CI self-check
//
// Overload proof (the same scenario against a healthy baseline server, then
// a deliberately starved one, gated on the ratio between them; the query
// prober's rate comes from the scenario's query_rate):
//
//	nurdserve -listen 127.0.0.1:8081 -shards 1 &
//	nurdserve -listen 127.0.0.1:8082 -shards 1 -client-rate 600 -ingest-queue 1 &
//	nurdload -scenario overload -speedup 6 -baseline-url http://127.0.0.1:8081 \
//	    -url http://127.0.0.1:8082 -overload-check 100 -f1-eps 0.1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/workload"
)

func main() {
	var (
		scenario    = flag.String("scenario", "", "workload scenario: built-in name or JSON spec file")
		list        = flag.Bool("list", false, "list built-in scenarios and exit")
		url         = flag.String("url", "", "base URL of the running front end to drive (required; with -overload-check, the starved server)")
		baselineURL = flag.String("baseline-url", "", "with -overload-check: base URL of the healthy baseline server")
		out         = flag.String("out", "", "write the JSON report here (- = stdout); default stdout")
		speedup     = flag.Float64("speedup", 8, "compress virtual time onto the wall clock by this factor")
		maxRateGap  = flag.Float64("max-rate-gap", 0, "self-check: exit nonzero when |offered-achieved|/offered exceeds this (0 = no check)")
		overCheck   = flag.Float64("overload-check", 0, "drive -baseline-url, then -url, and exit nonzero unless the -url run sheds, loses nothing, and keeps query p99 within this multiple of baseline (0 = off)")
		f1Eps       = flag.Float64("f1-eps", 0, "with -overload-check: max allowed macro-F1 drop vs baseline over jobs both runs completed (0 = skip the accuracy gate)")
	)
	flag.Parse()

	err := run(runArgs{
		scenario: *scenario, list: *list, url: *url, baselineURL: *baselineURL, out: *out,
		speedup: *speedup, maxRateGap: *maxRateGap, overCheck: *overCheck, f1Eps: *f1Eps,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nurdload:", err)
		os.Exit(1)
	}
}

type runArgs struct {
	scenario         string
	list             bool
	url, baselineURL string
	out              string
	speedup          float64
	maxRateGap       float64
	overCheck        float64
	f1Eps            float64
}

func run(a runArgs) error {
	if a.list {
		for _, name := range workload.ScenarioNames() {
			ws, _ := workload.Builtin(name)
			fmt.Printf("%-8s seed %-3d %4.0f virtual s, %d client(s)\n", name, ws.Seed, ws.Duration, len(ws.Clients))
		}
		return nil
	}
	a.url, a.baselineURL = strings.TrimSuffix(a.url, "/"), strings.TrimSuffix(a.baselineURL, "/")
	switch {
	case a.scenario == "":
		return fmt.Errorf("need -scenario <name|file> or -list")
	case a.url == "":
		return fmt.Errorf("need -url: nurdload drives a running front end (start one with nurdserve -listen)")
	case a.overCheck > 0 && a.baselineURL == "":
		return fmt.Errorf("-overload-check needs -baseline-url, a healthy server, besides the starved -url")
	case a.overCheck > 0 && a.baselineURL == a.url:
		return fmt.Errorf("-baseline-url and -url are equal: the overload check needs two servers (a second run on one server re-registers its jobs)")
	case a.overCheck <= 0 && a.baselineURL != "":
		return fmt.Errorf("-baseline-url is only used by -overload-check")
	}

	ws, err := workload.LoadSpec(a.scenario)
	if err != nil {
		return err
	}
	wl, err := workload.Synthesize(ws)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "scenario %s: %d jobs, %d events, %d malformed over %.1f virtual s\n",
		ws.Name, wl.Jobs, wl.Events, wl.Malformed, wl.Span)
	opts := workload.Options{Speedup: a.speedup, Retry429: true}
	if a.overCheck > 0 {
		return runOverloadCheck(a, wl, opts)
	}

	rep, err := workload.Run(wl, &workload.HTTPTarget{BaseURL: a.url}, opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, rep.String())
	if err := writeOut(a.out, rep); err != nil {
		return err
	}
	if rep.Errors > 0 {
		return fmt.Errorf("scenario %s: %d unexpected errors, first: %s", rep.Scenario, rep.Errors, rep.FirstError)
	}
	if a.maxRateGap > 0 && math.Abs(rep.RateGap) > a.maxRateGap {
		return fmt.Errorf("scenario %s: rate gap %.1f%% exceeds the %.1f%% budget (offered %.0f ev/s, achieved %.0f ev/s)",
			rep.Scenario, 100*rep.RateGap, 100*a.maxRateGap, rep.OfferedRate, rep.AchievedRate)
	}
	return nil
}

// runResult bundles one overload-check run's client-side report with the
// server's per-job accuracy.
type runResult struct {
	Name   string
	Report *workload.Report
	Scores map[uint64]workload.JobScore
}

// runScored drives the workload against the front end at url, then scores
// every completed job against the workload's ground truth.
func runScored(name string, wl *workload.Workload, url string, opts workload.Options) (*runResult, error) {
	fmt.Fprintf(os.Stderr, "== %s (%s) ==\n", name, url)
	tgt := &workload.HTTPTarget{BaseURL: url}
	rep, err := workload.Run(wl, tgt, opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, rep.String())
	res := &runResult{Name: name, Report: rep}
	if res.Scores, err = workload.ScoreJobs(tgt, wl); err != nil {
		return nil, err
	}
	return res, nil
}

// overloadVerdict is the JSON shape -overload-check emits: both runs'
// reports plus the cross-run accuracy accounting the gate evaluated.
type overloadVerdict struct {
	Baseline *workload.Report `json:"baseline"`
	Overload *workload.Report `json:"overload"`
	// BaselineF1/OverloadF1 are macro-averaged over CommonJobs — the jobs
	// BOTH runs completed — so the delta measures verdict quality under
	// shedding, not population drift.
	CommonJobs int     `json:"common_jobs"`
	BaselineF1 float64 `json:"baseline_macro_f1"`
	OverloadF1 float64 `json:"overload_macro_f1"`
	// P99Ratio is overload query p99 over max(baseline query p99, 1ms).
	P99Ratio float64 `json:"query_p99_ratio"`
}

// runOverloadCheck is the dual-run overload proof: the same workload against
// a healthy server (-baseline-url) and against a starved one (-url). The gate
// asserts the starved run actually shed, lost nothing it acknowledged, kept
// query p99 within -overload-check times baseline, and (with -f1-eps)
// stayed within epsilon of baseline accuracy on the jobs both runs
// completed.
func runOverloadCheck(a runArgs, wl *workload.Workload, opts workload.Options) error {
	base, err := runScored("baseline", wl, a.baselineURL, opts)
	if err != nil {
		return err
	}
	over, err := runScored("overload", wl, a.url, opts)
	if err != nil {
		return err
	}

	common := workload.CommonJobs(base.Scores, over.Scores)
	v := overloadVerdict{
		Baseline:   base.Report,
		Overload:   over.Report,
		CommonJobs: len(common),
		BaselineF1: workload.MacroF1(base.Scores, common),
		OverloadF1: workload.MacroF1(over.Scores, common),
	}
	// A fast machine can keep baseline p99 in the microseconds; the 1ms
	// floor keeps the ratio gate meaningful instead of dividing by noise.
	floor := v.Baseline.QueryLatency.P99
	if floor < 1 {
		floor = 1
	}
	v.P99Ratio = v.Overload.QueryLatency.P99 / floor
	if err := writeOut(a.out, v); err != nil {
		return err
	}

	var fails []string
	failf := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}
	if base.Report.ShedEvents > 0 {
		failf("baseline shed %d events — the healthy run must not shed (is the -baseline-url server starved?)", base.Report.ShedEvents)
	}
	if over.Report.ShedEvents == 0 {
		failf("overload run shed nothing — the -url server was not starved, so the run proves nothing")
	}
	for _, r := range []*runResult{base, over} {
		if r.Report.Errors > 0 {
			failf("%s: %d unexpected errors, first: %s", r.Name, r.Report.Errors, r.Report.FirstError)
		}
		if r.Report.LostEvents > 0 {
			failf("%s: %d events acknowledged-but-lost (2xx remainder must be zero)", r.Name, r.Report.LostEvents)
		}
	}
	if over.Report.Queries == 0 {
		failf("overload run answered no query probes — nothing to bound (does the scenario set query_rate?)")
	}
	if v.P99Ratio > a.overCheck {
		failf("query p99 under overload is %.1fx baseline (%.2fms vs %.2fms, floor 1ms) — budget %.1fx",
			v.P99Ratio, v.Overload.QueryLatency.P99, v.Baseline.QueryLatency.P99, a.overCheck)
	}
	if a.f1Eps > 0 {
		if len(common) == 0 {
			failf("no jobs completed in both runs — cannot compare accuracy")
		} else if drop := v.BaselineF1 - v.OverloadF1; drop > a.f1Eps {
			failf("macro F1 dropped %.3f under shedding (%.3f -> %.3f over %d jobs) — budget %.3f",
				drop, v.BaselineF1, v.OverloadF1, len(common), a.f1Eps)
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("overload check failed:\n  %s", strings.Join(fails, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "overload check passed: shed %d, lost 0, query p99 %.1fx baseline, macro F1 %.3f vs %.3f over %d jobs\n",
		over.Report.ShedEvents, v.P99Ratio, v.OverloadF1, v.BaselineF1, len(common))
	return nil
}

func writeOut(out string, payload any) error {
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" || out == "-" {
		os.Stdout.Write(data)
		return nil
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	return nil
}
