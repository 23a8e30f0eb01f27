package trace

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// GenConfig controls synthetic workload generation.
type GenConfig struct {
	// Mode selects the feature schema and latency regime.
	Mode Mode
	// MinTasks/MaxTasks bound the per-job task count (the paper filters to
	// jobs with >= 100 tasks; Google jobs run up to 9999).
	MinTasks, MaxTasks int
	// FarFraction is the probability a job is generated with ProfileFar
	// (bimodal latency; feature-distant stragglers). The remainder use
	// ProfileNear.
	FarFraction float64
	// Seed drives everything.
	Seed uint64
}

// Mode selects a trace flavor.
type Mode uint8

// Workload flavors corresponding to the paper's two trace datasets.
const (
	ModeGoogle Mode = iota
	ModeAlibaba
)

// String returns the mode label.
func (m Mode) String() string {
	if m == ModeGoogle {
		return "google"
	}
	return "alibaba"
}

// DefaultGoogleConfig returns a generator for Google-like jobs.
func DefaultGoogleConfig(seed uint64) GenConfig {
	return GenConfig{Mode: ModeGoogle, MinTasks: 100, MaxTasks: 400, FarFraction: 0.5, Seed: seed}
}

// DefaultAlibabaConfig returns a generator for Alibaba-like jobs.
func DefaultAlibabaConfig(seed uint64) GenConfig {
	return GenConfig{Mode: ModeAlibaba, MinTasks: 100, MaxTasks: 400, FarFraction: 0.5, Seed: seed}
}

// Generator produces random jobs from a config.
type Generator struct {
	cfg GenConfig
	rng *stats.RNG
	n   uint64
}

// NewGenerator validates cfg and returns a generator.
func NewGenerator(cfg GenConfig) (*Generator, error) {
	if cfg.MinTasks < 10 {
		return nil, fmt.Errorf("trace: MinTasks must be >= 10, got %d", cfg.MinTasks)
	}
	if cfg.MaxTasks < cfg.MinTasks {
		return nil, fmt.Errorf("trace: MaxTasks %d < MinTasks %d", cfg.MaxTasks, cfg.MinTasks)
	}
	if cfg.FarFraction < 0 || cfg.FarFraction > 1 {
		return nil, fmt.Errorf("trace: FarFraction must be in [0,1], got %v", cfg.FarFraction)
	}
	return &Generator{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}, nil
}

// Next generates the next job in the stream.
func (g *Generator) Next() *Job {
	g.n++
	jobSeed := g.rng.Uint64()
	profile := ProfileNear
	if g.rng.Bernoulli(g.cfg.FarFraction) {
		profile = ProfileFar
	}
	ntasks := g.cfg.MinTasks + g.rng.Intn(g.cfg.MaxTasks-g.cfg.MinTasks+1)
	switch g.cfg.Mode {
	case ModeGoogle:
		return genGoogleJob(g.n, jobSeed, ntasks, profile)
	default:
		return genAlibabaJob(g.n, jobSeed, ntasks, profile)
	}
}

// Jobs generates n jobs.
func (g *Generator) Jobs(n int) []*Job {
	out := make([]*Job, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// GenJob generates a single job with explicitly chosen shape parameters —
// the entry point for workload synthesis layers that draw task counts and
// profiles from their own distributions instead of this package's uniform
// MinTasks/MaxTasks config. The job is deterministic in (mode, id, seed,
// ntasks, profile).
func GenJob(mode Mode, id, seed uint64, ntasks int, profile Profile) (*Job, error) {
	if ntasks < 10 {
		return nil, fmt.Errorf("trace: GenJob needs >= 10 tasks, got %d", ntasks)
	}
	switch mode {
	case ModeGoogle:
		return genGoogleJob(id, seed, ntasks, profile), nil
	case ModeAlibaba:
		return genAlibabaJob(id, seed, ntasks, profile), nil
	default:
		return nil, fmt.Errorf("trace: unknown mode %d", mode)
	}
}

// The causal model. Every task has latent work W (input size) and speed S
// (effective machine throughput); latency L = W/S, with per-job scale. All
// monitored usage features derive from (W, S, io-intensity, footprint), so
// fast tasks genuinely look small — the property of production traces that
// both makes latency learnable from features and gives NURD's centroid
// ratio rho its discriminating power:
//
//   - ProfileFar jobs: wide work spread and strong causes (skewed inputs,
//     badly degraded nodes). Stragglers are far outliers in latency AND
//     visibly shifted in features -> big centroid gap -> rho tends <= 1.
//   - ProfileNear jobs: homogeneous work, mild causes, heavy residual
//     noise. Latency spreads smoothly (p90 above half of max) and
//     stragglers look feature-similar -> small centroid gap -> rho > 1.
//
// A slice of "benign eccentric" tasks (odd feature profiles, ordinary
// latency) is mixed in so that feature-space outliers are NOT reliably
// latency outliers, the failure mode of pure outlier detection that the
// paper highlights (§3.2).
type jobCoeffs struct {
	scale        float64 // job latency scale (seconds per unit work)
	sigmaW       float64 // work-size spread (log space)
	noise        float64 // residual log-latency noise
	straggleP    float64 // probability a task receives a straggle cause
	benignP      float64 // probability of a benign eccentric task
	shift        float64 // feature visibility of causes (0..1)
	mulLo        float64 // straggle slowdown range
	mulHi        float64
	tailP        float64 // probability of a cause-less heavy-tail slowdown
	tailShape    float64 // Pareto shape of that slowdown (smaller = fatter)
	uniformNoise bool    // near jobs: bounded uniform residual instead of lognormal
	uniLo, uniHi float64
	severity     float64 // scales how hard a cause slows its task (0..1]
}

func drawCoeffs(rng *stats.RNG, profile Profile) jobCoeffs {
	c := jobCoeffs{
		scale:     rng.Uniform(20, 80),
		straggleP: rng.Uniform(0.10, 0.12),
		benignP:   rng.Uniform(0.12, 0.2),
	}
	if profile == ProfileFar {
		c.sigmaW = rng.Uniform(0.3, 0.5)
		c.noise = rng.Uniform(0.12, 0.25)
		c.shift = rng.Uniform(0.7, 1.0)
		c.mulLo, c.mulHi = 3.5, 9.0
		// Far jobs have genuinely long tails even without a cause.
		c.tailP, c.tailShape = 0.2, 3.5
		c.severity = 1
	} else {
		c.sigmaW = rng.Uniform(0.12, 0.22)
		c.shift = rng.Uniform(0.6, 0.85)
		// Near jobs: latency spreads widely but stays bounded (no Pareto
		// tail; bounded uniform residual), so the p90 threshold lands above
		// half of the maximum latency (Figure 1 right) while the residual
		// remains feature-invisible and hard to regress.
		c.uniformNoise = true
		c.uniLo, c.uniHi = 0.65, rng.Uniform(1.9, 2.3)
		c.mulLo, c.mulHi = 2.6, 3.6
		c.severity = 0.45
	}
	return c
}

// taskLatents samples one task's latent variables and cause.
type taskLatents struct {
	work   float64 // relative input size, E[.] ~= 1
	speed  float64 // relative machine speed, E[.] ~= 1
	ioInt  float64 // IO intensity (fraction of work that is IO)
	foot   float64 // memory footprint scale
	cause  Cause
	benign bool
}

func drawLatents(rng *stats.RNG, co jobCoeffs) taskLatents {
	l := taskLatents{
		work:  rng.LogNormal(-co.sigmaW*co.sigmaW/2, co.sigmaW), // mean 1
		speed: stats.Clip(rng.Normal(1, 0.08), 0.6, 1.4),
		ioInt: stats.Clip(rng.Normal(0.3, 0.1), 0.05, 0.8),
		foot:  stats.Clip(rng.Normal(0.4, 0.12), 0.05, 1),
	}
	if rng.Bernoulli(co.straggleP) {
		switch rng.Intn(3) {
		case 0:
			l.cause = CauseSlowNode
		case 1:
			l.cause = CauseContention
		default:
			l.cause = CauseSkew
		}
	} else if rng.Bernoulli(co.benignP) {
		l.benign = true
	}
	s := co.shift
	sev := co.severity
	if sev <= 0 {
		sev = 1
	}
	switch l.cause {
	case CauseSlowNode:
		// Degraded machine: low effective speed; visible as high CPI.
		l.speed *= 1 - rng.Uniform(0.45, 0.75)*liftToOne(s)*sev
	case CauseContention:
		// Co-located noisy neighbor: medium slowdown, inflated usage.
		l.speed *= 1 - rng.Uniform(0.3, 0.6)*liftToOne(s)*sev
	case CauseSkew:
		// Skewed input partition: much more work, IO heavy.
		l.work *= 1 + (rng.Uniform(2.5, 6)-1)*liftToOne(s)*sev
		l.ioInt = stats.Clip(l.ioInt*rng.Uniform(1.5, 2.5), 0.05, 0.95)
	}
	if l.benign {
		// Odd but harmless profile: unusual IO intensity and footprint at
		// ordinary latency.
		l.ioInt = stats.Clip(l.ioInt*rng.Uniform(2, 4), 0.05, 0.95)
		l.foot = stats.Clip(l.foot*rng.Uniform(1.8, 3), 0.05, 1.6)
	}
	return l
}

// liftToOne maps shift strength s in (0,1] to a multiplier in (0,1]: with
// full shift the cause acts at full strength; with weak shift the cause
// still slows the task but by a reduced, less feature-visible amount.
func liftToOne(s float64) float64 {
	return 0.4 + 0.6*s
}

// latency computes L = scale * work / speed * mult * exp(noise). The
// work/speed shifts already slow cause-affected tasks; the residual
// multiplier tops them up so that a drawn cause almost always lands the
// task beyond the p90 boundary rather than leaving feature-shifted
// "mini-stragglers" just below it.
func latency(rng *stats.RNG, co jobCoeffs, l taskLatents) float64 {
	var resid float64
	if co.uniformNoise {
		resid = rng.Uniform(co.uniLo, co.uniHi)
	} else {
		resid = math.Exp(rng.Normal(0, co.noise))
	}
	lat := co.scale * l.work / l.speed * resid
	if l.cause != CauseNone {
		mult := rng.Uniform(co.mulLo, co.mulHi) / 2
		if mult < 1.3 {
			mult = 1.3
		}
		lat *= mult
	} else if rng.Bernoulli(co.tailP) {
		// Residual heavy tail: occasional cause-less slowdowns whose
		// magnitude no feature predicts. These violate the Gaussian
		// residual assumption of censored regression (Tobit/Grabit) the
		// way production latencies do.
		lat *= rng.Pareto(1, co.tailShape)
	}
	return lat
}

// genGoogleJob builds one Google-schema job.
func genGoogleJob(id, seed uint64, ntasks int, profile Profile) *Job {
	rng := stats.NewRNG(seed)
	co := drawCoeffs(rng, profile)
	j := &Job{
		ID:        id,
		Schema:    GoogleFeatures,
		Tasks:     make([]Task, ntasks),
		Profile:   profile,
		noiseSeed: rng.Uint64(),
	}
	window := rng.Uniform(0.5, 2) * co.scale // dispatch wave duration
	for i := 0; i < ntasks; i++ {
		l := drawLatents(rng, co)
		lat := latency(rng, co, l)
		start := rng.Uniform(0, window)
		f := make([]float64, len(GoogleFeatures))
		s := co.shift

		// CPU rates: busier when contended, lower when starved by a slow
		// node.
		cpu := stats.Clip(0.45*l.speed+rng.Normal(0, 0.06), 0.02, 1)
		if l.cause == CauseContention {
			cpu = stats.Clip(cpu*(1+s*rng.Uniform(0.6, 1.2)), 0.02, 1.3)
		}
		cpi := stats.Clip(1.2/l.speed+rng.Normal(0, 0.1), 0.4, 8)
		if l.cause == CauseContention {
			cpi *= 1 + s*rng.Uniform(0.2, 0.6)
		}
		// Work-proportional usage: memory, page cache, disk, IO time.
		mem := stats.Clip(l.foot*math.Pow(l.work, 0.5)+rng.Normal(0, 0.03), 0.01, 3)
		io := l.work * l.ioInt * rng.Uniform(0.8, 1.2)
		dsk := stats.Clip(0.3*l.work*rng.Uniform(0.8, 1.2), 0.01, 5)

		f[gMCU] = cpu
		f[gMAXCPU] = stats.Clip(cpu*rng.Uniform(1.1, 1.6), 0.02, 1.6)
		f[gSCPU] = stats.Clip(cpu+rng.Normal(0, 0.04), 0, 1.6)
		f[gCMU] = mem
		f[gAMU] = stats.Clip(mem*rng.Uniform(1.0, 1.4), 0.01, 4)
		f[gMAXMU] = stats.Clip(mem*rng.Uniform(1.1, 1.5), 0.01, 4.5)
		f[gUPC] = stats.Clip(0.1*l.foot+rng.Normal(0, 0.02), 0, 0.8)
		f[gTPC] = stats.Clip(f[gUPC]+0.2*mem*rng.Uniform(0.8, 1.2), 0, 2)
		f[gMIO] = io
		f[gMAXIO] = io * rng.Uniform(1.2, 2.5)
		f[gMDK] = dsk
		f[gCPI] = cpi
		f[gMAI] = stats.Clip(0.05*cpi*rng.Uniform(0.8, 1.2), 0.005, 0.6)
		evP, flP := 0.03, 0.02
		if l.cause == CauseContention {
			evP += 0.3 * s
		}
		if l.cause == CauseSlowNode {
			flP += 0.2 * s
		}
		f[gEV] = float64(countEvents(rng, evP, 3))
		f[gFL] = float64(countEvents(rng, flP, 3))

		j.Tasks[i] = Task{ID: i, Start: start, Latency: lat, Features: f, TrueCause: l.cause}
	}
	capNearProfile(rng, j)
	return j
}

// genAlibabaJob builds one Alibaba-schema job: only 4 coarse features, so
// the observable signal is much weaker than Google's (skew is invisible,
// CPI does not exist) — the regime in which every method's F1 drops and the
// NURD margin narrows.
func genAlibabaJob(id, seed uint64, ntasks int, profile Profile) *Job {
	rng := stats.NewRNG(seed)
	co := drawCoeffs(rng, profile)
	co.noise *= 1.2
	j := &Job{
		ID:        id,
		Schema:    AlibabaFeatures,
		Tasks:     make([]Task, ntasks),
		Profile:   profile,
		noiseSeed: rng.Uint64(),
	}
	window := rng.Uniform(0.5, 2) * co.scale // dispatch wave duration
	for i := 0; i < ntasks; i++ {
		l := drawLatents(rng, co)
		lat := latency(rng, co, l)
		start := rng.Uniform(0, window)
		s := co.shift
		cpu := stats.Clip(4*l.speed+rng.Normal(0, 0.5), 0.5, 16)
		if l.cause == CauseContention {
			cpu = stats.Clip(cpu*(1+s*rng.Uniform(0.3, 0.8)), 0.5, 24)
		}
		mem := stats.Clip(l.foot*math.Pow(l.work, 0.5)+rng.Normal(0, 0.04), 0.02, 2)
		f := []float64{
			cpu,
			cpu * rng.Uniform(1.1, 1.7),
			mem,
			stats.Clip(mem*rng.Uniform(1.1, 1.6), 0.02, 3),
		}
		j.Tasks[i] = Task{ID: i, Start: start, Latency: lat, Features: f, TrueCause: l.cause}
	}
	capNearProfile(rng, j)
	return j
}

// capNearProfile enforces the Figure-1-right geometry on near-profile jobs:
// production tasks run under watchdog timeouts, so the worst latency stays
// within a small multiple of the p90 threshold (the paper's example job has
// p90 ~= 0.62 of max). Latencies above the cap are truncated to it.
func capNearProfile(rng *stats.RNG, j *Job) {
	if j.Profile != ProfileNear {
		return
	}
	lat := j.Latencies()
	p90 := stats.Quantile(lat, 0.9)
	cap := p90 * rng.Uniform(1.6, 1.9)
	for i := range j.Tasks {
		if j.Tasks[i].Latency > cap {
			j.Tasks[i].Latency = cap
		}
	}
}

// countEvents draws a small event count: Bernoulli(p) repeated up to max.
func countEvents(rng *stats.RNG, p float64, max int) int {
	n := 0
	for i := 0; i < max; i++ {
		if rng.Bernoulli(p) {
			n++
		}
	}
	return n
}

// ObsNoise is the per-checkpoint multiplicative measurement noise applied
// to every feature. Production monitoring windows (e.g. the Google traces'
// 5-minute usage snapshots) fluctuate considerably between checkpoints;
// this noise level reproduces the flag-set churn that drives the cumulative
// false-positive behaviour of threshold-based detectors in the paper.
const ObsNoise = 0.25

// ObservedFeatures returns the feature vector for task i as monitored at
// checkpoint t (an arbitrary integer tick). Observations are the latent
// feature vector under multiplicative noise, deterministic in
// (job, task, t).
func (j *Job) ObservedFeatures(i, t int) []float64 {
	return j.ObservedFeaturesInto(make([]float64, len(j.Tasks[i].Features)), i, t)
}

// ObservedFeaturesInto writes ObservedFeatures(i, t) into the first
// len(Tasks[i].Features) elements of dst and returns that prefix, so a
// caller observing many (task, tick) pairs can fill one slab.
func (j *Job) ObservedFeaturesInto(dst []float64, i, t int) []float64 {
	base := j.Tasks[i].Features
	rng := stats.NewRNG(j.noiseSeed ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(t)*0xbf58476d1ce4e5b9)
	dst = dst[:len(base)]
	for k, v := range base {
		dst[k] = v * (1 + rng.Normal(0, ObsNoise))
	}
	return dst
}
