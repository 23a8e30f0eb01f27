// Command tracegen emits synthetic trace jobs: as CSV files for inspection
// or for feeding cmd/nurdrun, or as a wire-format serving dump (-format
// wire) that cmd/nurdserve -replay loads back through the online serving
// path (or that a running server takes as one POST /ingest body). With
// -scenario it instead expands a
// workload scenario (a built-in name or a JSON spec file, see
// internal/workload) into its clean wire dump — the same deterministic
// traffic cmd/nurdload fires, minus the hostile-injection overlay, ready for
// replay.
//
// Usage:
//
//	tracegen -mode google -jobs 3 -out /tmp/traces -seed 7
//	tracegen -mode google -jobs 8 -format wire -out /tmp/traces
//	tracegen -scenario diurnal -out /tmp/traces
//	nurdserve -listen :8080 -replay /tmp/traces/google-8.wire
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/serve"
	"repro/internal/simulator"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	var (
		mode     = flag.String("mode", "google", "trace flavor: google|alibaba")
		jobs     = flag.Int("jobs", 1, "number of jobs to generate")
		out      = flag.String("out", ".", "output directory")
		seed     = flag.Uint64("seed", 42, "RNG seed")
		far      = flag.Float64("far", -1, "override FarFraction in [0,1] (-1 = default)")
		format   = flag.String("format", "csv", "output format: csv (one file per job) | wire (one serving dump)")
		scenario = flag.String("scenario", "", "expand a workload scenario (built-in name or JSON spec file) into its clean wire dump; overrides -mode/-jobs/-format")
	)
	flag.Parse()
	var err error
	switch {
	case *scenario != "":
		err = runScenario(*scenario, *out)
	case *format == "csv":
		err = run(*mode, *jobs, *out, *seed, *far)
	case *format == "wire":
		err = runWire(*mode, *jobs, *out, *seed, *far)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// runScenario expands a workload scenario into its clean wire dump (the
// hostile-injection overlay, if any, is dropped: replay targets expect a
// well-formed stream).
func runScenario(name, out string) error {
	ws, err := workload.LoadSpec(name)
	if err != nil {
		return err
	}
	wl, err := workload.Synthesize(ws)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("scenario-%s-%d.wire", ws.Name, ws.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := wl.WriteWire(bw, false); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (scenario %s seed %d: %d jobs, %d events over %.1f virtual s)\n",
		path, ws.Name, ws.Seed, wl.Jobs, wl.Events, wl.Span)
	return nil
}

func run(mode string, jobs int, out string, seed uint64, far float64) error {
	var cfg trace.GenConfig
	switch mode {
	case "google":
		cfg = trace.DefaultGoogleConfig(seed)
	case "alibaba":
		cfg = trace.DefaultAlibabaConfig(seed)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	if far >= 0 {
		cfg.FarFraction = far
	}
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for i := 0; i < jobs; i++ {
		job := gen.Next()
		path := filepath.Join(out, fmt.Sprintf("%s-job-%d.csv", mode, job.ID))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := job.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d tasks, profile=%s)\n", path, job.NumTasks(), job.Profile)
	}
	return nil
}

// runWire emits one wire-format serving dump: every job's spec followed by
// the jobs' merged monitoring streams. Specs carry the same per-(job,
// method) NURD seeds experiments.Run derives, so replaying the dump through
// a default-configured serve.Server reproduces the offline Table 3 NURD
// path for these jobs.
func runWire(mode string, jobs int, out string, seed uint64, far float64) error {
	if jobs < 1 {
		return fmt.Errorf("need >= 1 job, got %d", jobs)
	}
	var cfg trace.GenConfig
	switch mode {
	case "google":
		cfg = trace.DefaultGoogleConfig(seed)
	case "alibaba":
		// The seed transformation experiments.AlibabaSpec applies, so job
		// ji of the dump is job ji of the offline Alibaba evaluation.
		cfg = trace.DefaultAlibabaConfig(seed ^ 0xa11baba)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	if far >= 0 {
		cfg.FarFraction = far
	}
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		return err
	}
	mi, _, ok := predictor.FindFactory("NURD")
	if !ok {
		return fmt.Errorf("NURD factory not found")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	specs := make([]wire.JobSpec, jobs)
	streams := make([][]wire.Event, jobs)
	totalTasks := 0
	for i := 0; i < jobs; i++ {
		job := gen.Next()
		sim, err := simulator.New(job, simulator.DefaultConfig())
		if err != nil {
			return err
		}
		specs[i] = serve.SpecFor(sim, experiments.UnitSeed(seed, i, mi))
		streams[i] = serve.JobEvents(job, sim)
		totalTasks += job.NumTasks()
	}
	events := serve.MergeStreams(streams...)
	path := filepath.Join(out, fmt.Sprintf("%s-%d.wire", mode, jobs))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// wire.Writer issues one Write per frame; buffer the file so a large
	// dump is not one ~60-byte syscall per event.
	bw := bufio.NewWriter(f)
	if err := wire.WriteDump(bw, specs, events); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d jobs, %d tasks, %d events)\n", path, jobs, totalTasks, len(events))
	return nil
}
