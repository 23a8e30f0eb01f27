// Command nurdload is the open-loop latency-percentile load harness: it
// expands a workload scenario (internal/workload) into its deterministic
// send timeline and fires it at a serving front end on the timeline's
// ABSOLUTE schedule, regardless of response latency. Late sends are recorded
// as queue delay — never rescheduled — so the reported percentiles include
// every millisecond a real client would have waited (no coordinated
// omission).
//
// By default the harness spins up its own in-process server on a loopback
// listener, so a scenario run is fully self-contained; -url points it at an
// external front end instead. The in-process server takes the same overload
// knobs the real binary does (-ingest-queue, -refit-queue, -client-rate,
// -degraded-after), so shedding behavior is measurable without deploying
// anything.
//
// Usage:
//
//	nurdload -list                                     # scenario catalog
//	nurdload -scenario steady -speedup 8               # one scenario, human summary + JSON
//	nurdload -scenario examples/scenarios/burst.json   # from a spec file
//	nurdload -all -out BENCH_loadgen.json              # the four-scenario bench suite
//	nurdload -scenario smoke -speedup 4 -max-rate-gap 0.2   # CI self-check (exit 1 on breach)
//	nurdload -scenario hostile -url http://127.0.0.1:8080   # external target
//
// Overload proof (two runs of the same scenario — a healthy baseline, then
// a deliberately starved server — gated on the ratio between them):
//
//	nurdload -scenario overload -speedup 6 -shards 1 -ingest-queue 1 \
//	    -degraded-after 2ms -query-rate 25 -overload-check 100 -f1-eps 0.1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"repro/internal/serve"
	"repro/internal/servehttp"
	"repro/internal/workload"
)

func main() {
	var (
		scenario   = flag.String("scenario", "", "workload scenario: built-in name or JSON spec file")
		all        = flag.Bool("all", false, "run the four-scenario bench suite (steady, diurnal, burst, hostile), each against a fresh server")
		list       = flag.Bool("list", false, "list built-in scenarios and exit")
		speedup    = flag.Float64("speedup", 8, "compress virtual time onto the wall clock by this factor")
		url        = flag.String("url", "", "target front end base URL; empty = spin up an in-process server per run")
		shards     = flag.Int("shards", 0, "shards for the in-process server (0 = default)")
		out        = flag.String("out", "", "write the JSON report here (- = stdout); default stdout")
		maxRateGap = flag.Float64("max-rate-gap", 0, "self-check: exit nonzero when |offered-achieved|/offered exceeds this (0 = no check)")

		// Overload knobs for the in-process server (ignored with -url).
		ingestQueue = flag.Int("ingest-queue", 0, "per-shard ingest queue bound for the in-process server (< 1 = default)")
		refitQueue  = flag.Int("refit-queue", 0, "per-shard refit queue bound (< 1 = default)")
		clientRate  = flag.Float64("client-rate", 0, "per-client token-bucket refill, frames/s, burst 2x (0 = no rate limiting)")
		degraded    = flag.Duration("degraded-after", 0, "serve stale verdicts when a job lock is not free within this (0 = always wait)")

		// Open-loop query prober. Whole-request 429s are always resent
		// after their Retry-After hint (capped).
		queryRate = flag.Float64("query-rate", 0, "open-loop query probes per virtual second (0 = no prober)")

		// The dual-run overload gate.
		overCheck = flag.Float64("overload-check", 0, "run the scenario twice — healthy baseline, then starved with the overload knobs — and exit nonzero unless the starved run sheds, loses nothing, and keeps query p99 within this multiple of baseline (0 = off)")
		f1Eps     = flag.Float64("f1-eps", 0, "with -overload-check: max allowed macro-F1 drop vs baseline over jobs both runs completed (0 = skip the accuracy gate)")
	)
	flag.Parse()

	cfg := serve.Config{
		Shards:        *shards,
		IngestQueue:   *ingestQueue,
		RefitQueue:    *refitQueue,
		ClientRate:    *clientRate,
		DegradedAfter: *degraded,
	}
	opts := workload.Options{
		Speedup:   *speedup,
		QueryRate: *queryRate,
		Retry429:  true,
	}
	err := run(runArgs{
		scenario: *scenario, all: *all, list: *list, url: *url, out: *out,
		maxRateGap: *maxRateGap, overCheck: *overCheck, f1Eps: *f1Eps,
		cfg: cfg, opts: opts,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nurdload:", err)
		os.Exit(1)
	}
}

type runArgs struct {
	scenario   string
	all, list  bool
	url, out   string
	maxRateGap float64
	overCheck  float64
	f1Eps      float64
	cfg        serve.Config
	opts       workload.Options
}

func run(a runArgs) error {
	if a.list {
		for _, name := range workload.ScenarioNames() {
			ws, _ := workload.Builtin(name)
			fmt.Printf("%-8s seed %-3d %4.0f virtual s, %d client(s)\n", name, ws.Seed, ws.Duration, len(ws.Clients))
		}
		return nil
	}
	if a.overCheck > 0 {
		if a.scenario == "" || a.all {
			return fmt.Errorf("-overload-check needs exactly one -scenario")
		}
		if a.url != "" {
			return fmt.Errorf("-overload-check drives two fresh in-process servers; it cannot target -url")
		}
		return runOverloadCheck(a)
	}
	var names []string
	switch {
	case a.all && a.scenario != "":
		return fmt.Errorf("-all and -scenario are mutually exclusive")
	case a.all:
		names = workload.BenchScenarioNames()
	case a.scenario != "":
		names = []string{a.scenario}
	default:
		return fmt.Errorf("need -scenario <name|file>, -all, or -list")
	}

	var reports []*workload.Report
	for _, name := range names {
		res, err := runOne(name, a.url, a.cfg, a.opts, false)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, res.Report.String())
		reports = append(reports, res.Report)
	}

	var payload any = reports[0]
	if len(reports) > 1 {
		payload = map[string]any{"reports": reports}
	}
	if err := writeOut(a.out, payload); err != nil {
		return err
	}

	if a.maxRateGap > 0 {
		for _, rep := range reports {
			if gap := abs(rep.RateGap); gap > a.maxRateGap {
				return fmt.Errorf("scenario %s: rate gap %.1f%% exceeds the %.1f%% budget (offered %.0f ev/s, achieved %.0f ev/s)",
					rep.Scenario, 100*rep.RateGap, 100*a.maxRateGap, rep.OfferedRate, rep.AchievedRate)
			}
			if rep.Errors > 0 {
				return fmt.Errorf("scenario %s: %d unexpected errors, first: %s", rep.Scenario, rep.Errors, rep.FirstError)
			}
		}
	}
	return nil
}

// runResult bundles one run's client-side report with the server's own view
// of it: the /stats overload taxonomy and (when scored) per-job accuracy.
type runResult struct {
	Report *workload.Report
	Stats  *serve.Stats
	Scores map[uint64]workload.JobScore
}

// runOne synthesizes and drives a single scenario. Without -url every
// scenario gets a fresh in-process server, so runs never contaminate each
// other's job budgets or stats. score additionally fetches every completed
// job's report and scores it against the workload's ground truth.
func runOne(name, url string, cfg serve.Config, opts workload.Options, score bool) (*runResult, error) {
	ws, err := workload.LoadSpec(name)
	if err != nil {
		return nil, err
	}
	wl, err := workload.Synthesize(ws)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "scenario %s: %d jobs, %d events, %d malformed over %.1f virtual s\n",
		ws.Name, wl.Jobs, wl.Events, wl.Malformed, wl.Span)

	tgt := &workload.HTTPTarget{BaseURL: strings.TrimSuffix(url, "/")}
	if url == "" {
		sv := serve.NewServer(cfg)
		ts := httptest.NewUnstartedServer(servehttp.NewHandler(sv))
		ts.Start()
		defer ts.Close()
		tgt.BaseURL = ts.URL
		tgt.Client = ts.Client()
	} else {
		tgt.Client = http.DefaultClient
	}
	rep, err := workload.Run(wl, tgt, opts)
	if err != nil {
		return nil, err
	}
	res := &runResult{Report: rep}
	res.Stats, err = fetchStats(tgt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warning: /stats unavailable: %v\n", err)
	}
	if score {
		res.Scores, err = workload.ScoreJobs(tgt, wl)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// fetchStats pulls the server-side overload taxonomy after a run; the
// harness gates on it (shed counters, shed-finish invariant) in addition to
// its own client-side accounting.
func fetchStats(tgt *workload.HTTPTarget) (*serve.Stats, error) {
	resp, err := tgt.Client.Get(tgt.BaseURL + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats returned %s", resp.Status)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
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

// runOverloadCheck is the dual-run overload proof: the same scenario against
// a healthy default server (baseline) and against a server starved by the
// command-line overload knobs. The gate asserts the starved run actually
// shed, lost nothing it acknowledged, never shed a finish, kept query p99
// within -overload-check times baseline, and (with -f1-eps) stayed within
// epsilon of baseline accuracy on the jobs both runs completed.
func runOverloadCheck(a runArgs) error {
	if a.opts.QueryRate <= 0 {
		// The whole point is the query-latency bound; probe by default.
		a.opts.QueryRate = 25
	}
	baseCfg := serve.Config{Shards: a.cfg.Shards}
	fmt.Fprintln(os.Stderr, "== baseline (default server) ==")
	base, err := runOne(a.scenario, "", baseCfg, a.opts, true)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, base.Report.String())
	fmt.Fprintln(os.Stderr, "== overload (starved server) ==")
	over, err := runOne(a.scenario, "", a.cfg, a.opts, true)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, over.Report.String())

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
	if base.Report.Errors > 0 {
		failf("baseline: %d unexpected errors, first: %s", base.Report.Errors, base.Report.FirstError)
	}
	if base.Report.ShedEvents > 0 {
		failf("baseline shed %d events — the healthy run must not shed (is the default config starved?)", base.Report.ShedEvents)
	}
	if over.Report.Errors > 0 {
		failf("overload: %d unexpected errors, first: %s", over.Report.Errors, over.Report.FirstError)
	}
	if over.Report.ShedEvents == 0 {
		failf("overload run shed nothing — the knobs did not starve the server, so the run proves nothing")
	}
	for _, r := range []*runResult{base, over} {
		if r.Report.LostEvents > 0 {
			failf("scenario %s: %d events acknowledged-but-lost (2xx remainder must be zero)", r.Report.Scenario, r.Report.LostEvents)
		}
		if r.Stats != nil && r.Stats.Overload.ShedFinishes > 0 {
			failf("server shed %d finishes — finishes carry labels and must never be shed", r.Stats.Overload.ShedFinishes)
		}
	}
	if over.Report.Queries == 0 {
		failf("overload run answered no query probes — nothing to bound")
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

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
