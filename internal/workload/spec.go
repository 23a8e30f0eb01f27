// Package workload is the declarative scenario layer behind every load and
// scale claim in this repository: a WorkloadSpec names, in one JSON-serializable
// value, the traffic a serving deployment should face — per-client arrival
// processes (Poisson, constant, bursty, each modulated by multi-period diurnal
// rate curves), job-size and job-duration distributions with heavy tails, the
// straggler-cause mix, and a malformed-frame injection rate for hostile runs.
//
// Synthesize expands a spec into a fully deterministic send timeline of wire
// elements (wire.JobSpec registrations and lifecycle Events, each stamped with
// an absolute virtual send time), and the open-loop driver in loadgen.go fires
// that timeline at a serving front end on its absolute schedule — late sends
// are recorded as queue delay, never rescheduled, so the reported latency
// percentiles are free of coordinated omission. Everything downstream of the
// (spec, seed) pair is bit-reproducible: the same spec synthesizes the same
// byte stream on every run and under every GOMAXPROCS setting
// (test-enforced), so a scenario name plus a seed fully identifies a
// benchmark workload.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/stats"
)

// WorkloadSpec declares one reproducible serving scenario.
type WorkloadSpec struct {
	// Name identifies the scenario in reports and BENCH records.
	Name string `json:"name"`
	// Seed drives every random draw in the synthesis. Same spec + same seed
	// means byte-identical synthesized traffic.
	Seed uint64 `json:"seed"`
	// Duration is the job-arrival window in virtual seconds. Jobs arriving
	// near the end still stream their full event feeds, so the synthesized
	// timeline extends past Duration by roughly the job-duration tail.
	Duration float64 `json:"duration_s"`
	// Trace selects the feature schema and latency regime of the synthesized
	// jobs: "google" (14 features) or "alibaba" (4 coarse features).
	Trace string `json:"trace"`
	// Clients are independent traffic sources. Each client's elements are
	// delivered in order (one monitoring pipeline per client); distinct
	// clients are driven concurrently.
	Clients []ClientSpec `json:"clients"`
	// QueryRate, when positive, runs an open-loop query prober beside the
	// ingest lanes during a load run: verdict queries at this rate per
	// virtual second, round-robin across the jobs registered so far. It
	// shapes the run, not the traffic: Synthesize never reads it.
	QueryRate float64 `json:"query_rate,omitempty"`
}

// ClientSpec declares one traffic source inside a scenario.
type ClientSpec struct {
	// Name labels the client in reports.
	Name string `json:"name"`
	// Arrival is the client's job arrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// JobTasks draws the per-job task count (rounded, clamped to
	// [MinJobTasks, MaxJobTasks]). Heavy-tailed distributions are welcome —
	// that is the point of making this a DistSpec.
	JobTasks DistSpec `json:"job_tasks"`
	// JobDuration draws the per-job target makespan in virtual seconds: the
	// synthesized job's timeline (task starts, latencies, monitoring ticks)
	// is scaled so its makespan equals the draw.
	JobDuration DistSpec `json:"job_duration_s"`
	// FarFraction is the straggler-cause mix: the probability a job is
	// generated with the feature-visible ("far") straggler regime — strong
	// causes, wide work spread — versus the feature-ambiguous ("near")
	// regime of mild causes and heavy residual noise.
	FarFraction float64 `json:"far_fraction"`
	// MalformedRate is the probability an event frame is corrupted before
	// sending (one payload byte flipped): the hostile-injection knob. A
	// corrupt frame fails the wire CRC at the front end and must be rejected
	// with 400 without disturbing neighboring traffic; corrupted frames are
	// always sent as their own request.
	MalformedRate float64 `json:"malformed_rate,omitempty"`
}

// Arrival process names.
const (
	ArrivalPoisson  = "poisson"
	ArrivalConstant = "constant"
	ArrivalBursty   = "bursty"
)

// ArrivalSpec declares a job arrival process with an optional diurnal rate
// curve. The instantaneous rate at virtual time t is
//
//	rate(t) = Rate * max(0, 1 + Σ_i Amp_i*sin(2π·t/Period_i + Phase_i))
//
// scaled by BurstFactor inside burst windows for the bursty process.
type ArrivalSpec struct {
	// Process is one of "poisson" (memoryless interarrivals, thinned against
	// the rate curve), "constant" (deterministic arrivals integrating the
	// rate curve), or "bursty" ("poisson" modulated by ON/OFF burst windows).
	Process string `json:"process"`
	// Rate is the baseline arrival rate in jobs per virtual second.
	Rate float64 `json:"rate"`
	// Curve stacks sinusoidal modulation components (multi-period diurnal
	// shapes: a daily cycle plus an hourly ripple, scaled into scenario
	// time).
	Curve []RateComponent `json:"curve,omitempty"`
	// BurstEvery is the mean virtual-time gap between burst onsets
	// (exponential; bursty only).
	BurstEvery float64 `json:"burst_every_s,omitempty"`
	// BurstLen is the virtual-time length of each burst window.
	BurstLen float64 `json:"burst_len_s,omitempty"`
	// BurstFactor multiplies the rate inside burst windows (> 1).
	BurstFactor float64 `json:"burst_factor,omitempty"`
}

// RateComponent is one sinusoidal term of a diurnal rate curve.
type RateComponent struct {
	// Period is the component's cycle length in virtual seconds.
	Period float64 `json:"period_s"`
	// Amp is the relative amplitude (0.5 swings the rate ±50%).
	Amp float64 `json:"amp"`
	// Phase offsets the component in radians.
	Phase float64 `json:"phase,omitempty"`
}

// Distribution names for DistSpec.Dist.
const (
	DistConstant    = "constant"
	DistUniform     = "uniform"
	DistLogNormal   = "lognormal"
	DistPareto      = "pareto"
	DistExponential = "exponential"
)

// DistSpec declares a scalar sampling distribution. Min/Max, when positive,
// clamp every draw (for uniform they are the support itself).
type DistSpec struct {
	// Dist selects the family: constant | uniform | lognormal | pareto |
	// exponential.
	Dist string `json:"dist"`
	// Value is the constant family's value.
	Value float64 `json:"value,omitempty"`
	// Min / Max bound draws (uniform support; clamp elsewhere when > 0).
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Mu / Sigma parameterize the lognormal's underlying normal.
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	// Scale / Shape parameterize the Pareto (xm, alpha). Smaller Shape means
	// a fatter tail.
	Scale float64 `json:"scale,omitempty"`
	Shape float64 `json:"shape,omitempty"`
	// Mean parameterizes the exponential.
	Mean float64 `json:"mean,omitempty"`
}

// Sample draws one value from the distribution.
func (d *DistSpec) Sample(rng *stats.RNG) float64 {
	var v float64
	switch d.Dist {
	case DistConstant:
		v = d.Value
	case DistUniform:
		v = rng.Uniform(d.Min, d.Max)
	case DistLogNormal:
		v = rng.LogNormal(d.Mu, d.Sigma)
	case DistPareto:
		v = rng.Pareto(d.Scale, d.Shape)
	case DistExponential:
		v = rng.Exponential(1 / d.Mean)
	default:
		panic(fmt.Sprintf("workload: unvalidated distribution %q", d.Dist))
	}
	if d.Dist != DistUniform {
		if d.Min > 0 && v < d.Min {
			v = d.Min
		}
		if d.Max > 0 && v > d.Max {
			v = d.Max
		}
	}
	return v
}

// validate checks the distribution's parameters. label names the field in
// errors.
func (d *DistSpec) validate(label string) error {
	switch d.Dist {
	case DistConstant:
		if d.Value <= 0 {
			return fmt.Errorf("workload: %s: constant value must be > 0, got %v", label, d.Value)
		}
	case DistUniform:
		if d.Min <= 0 || d.Max < d.Min {
			return fmt.Errorf("workload: %s: uniform needs 0 < min <= max, got [%v, %v]", label, d.Min, d.Max)
		}
	case DistLogNormal:
		if d.Sigma < 0 {
			return fmt.Errorf("workload: %s: lognormal sigma must be >= 0, got %v", label, d.Sigma)
		}
	case DistPareto:
		if d.Scale <= 0 || d.Shape <= 0 {
			return fmt.Errorf("workload: %s: pareto needs scale > 0 and shape > 0, got (%v, %v)", label, d.Scale, d.Shape)
		}
	case DistExponential:
		if d.Mean <= 0 {
			return fmt.Errorf("workload: %s: exponential mean must be > 0, got %v", label, d.Mean)
		}
	default:
		return fmt.Errorf("workload: %s: unknown distribution %q", label, d.Dist)
	}
	if d.Min < 0 || d.Max < 0 {
		return fmt.Errorf("workload: %s: negative clamp bound", label)
	}
	if d.Dist != DistUniform && d.Min > 0 && d.Max > 0 && d.Max < d.Min {
		return fmt.Errorf("workload: %s: clamp max %v < min %v", label, d.Max, d.Min)
	}
	return nil
}

// Synthesized job-size clamp: below MinJobTasks the warmup gate and p90
// threshold lose meaning; above MaxJobTasks a single job dominates the run.
const (
	MinJobTasks = 20
	MaxJobTasks = 2000
)

// Validate checks the spec's invariants.
func (ws *WorkloadSpec) Validate() error {
	if ws.Name == "" {
		return fmt.Errorf("workload: scenario needs a name")
	}
	if !(ws.Duration > 0) {
		return fmt.Errorf("workload: %s: Duration must be > 0, got %v", ws.Name, ws.Duration)
	}
	if ws.Trace != "google" && ws.Trace != "alibaba" {
		return fmt.Errorf("workload: %s: unknown trace %q (google|alibaba)", ws.Name, ws.Trace)
	}
	if len(ws.Clients) == 0 {
		return fmt.Errorf("workload: %s: need at least one client", ws.Name)
	}
	if ws.QueryRate < 0 {
		return fmt.Errorf("workload: %s: query_rate must be >= 0, got %v", ws.Name, ws.QueryRate)
	}
	for ci := range ws.Clients {
		c := &ws.Clients[ci]
		label := fmt.Sprintf("%s/client %q", ws.Name, c.Name)
		if c.Name == "" {
			return fmt.Errorf("workload: %s: client %d needs a name", ws.Name, ci)
		}
		a := &c.Arrival
		switch a.Process {
		case ArrivalPoisson, ArrivalConstant:
		case ArrivalBursty:
			if a.BurstEvery <= 0 || a.BurstLen <= 0 || a.BurstFactor <= 1 {
				return fmt.Errorf("workload: %s: bursty needs burst_every_s > 0, burst_len_s > 0, burst_factor > 1", label)
			}
		default:
			return fmt.Errorf("workload: %s: unknown arrival process %q", label, a.Process)
		}
		if !(a.Rate > 0) {
			return fmt.Errorf("workload: %s: arrival rate must be > 0, got %v", label, a.Rate)
		}
		amps := 0.0
		for _, rc := range a.Curve {
			if rc.Period <= 0 {
				return fmt.Errorf("workload: %s: rate component period must be > 0, got %v", label, rc.Period)
			}
			amps += math.Abs(rc.Amp)
		}
		if amps > 4 {
			return fmt.Errorf("workload: %s: rate curve amplitudes sum to %v; keep |amp| sum <= 4", label, amps)
		}
		if err := c.JobTasks.validate(label + ": job_tasks"); err != nil {
			return err
		}
		if err := c.JobDuration.validate(label + ": job_duration_s"); err != nil {
			return err
		}
		if c.FarFraction < 0 || c.FarFraction > 1 {
			return fmt.Errorf("workload: %s: far_fraction must be in [0,1], got %v", label, c.FarFraction)
		}
		if c.MalformedRate < 0 || c.MalformedRate > 1 {
			return fmt.Errorf("workload: %s: malformed_rate must be in [0,1], got %v", label, c.MalformedRate)
		}
	}
	return nil
}

// ParseSpec decodes and validates a scenario from JSON bytes. Unknown fields
// are rejected: a typo in a scenario file must fail loudly, not silently run
// the default.
func ParseSpec(data []byte) (*WorkloadSpec, error) {
	var ws WorkloadSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ws); err != nil {
		return nil, fmt.Errorf("workload: parse scenario: %w", err)
	}
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	return &ws, nil
}

// LoadSpec resolves name as a built-in scenario first, then as a path to a
// JSON scenario file.
func LoadSpec(name string) (*WorkloadSpec, error) {
	if ws, ok := Builtin(name); ok {
		return ws, nil
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("workload: %q is neither a built-in scenario (%v) nor a readable file: %w",
			name, ScenarioNames(), err)
	}
	return ParseSpec(data)
}
