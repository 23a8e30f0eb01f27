package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/nurd"
	"repro/internal/predictor"
	"repro/internal/simulator"
	"repro/internal/wal"
	"repro/internal/wire"
)

// ErrOverloaded reports a registration rejected because the server's
// configured budget (Config.MaxJobs / Config.MaxTasks) is exhausted. It is
// errors.Is-matchable through every wrapping layer; the HTTP front end
// answers 429. Dropping finished jobs (DropJob) releases budget.
var ErrOverloaded = errors.New("server at capacity")

// Default registration budget. Per-spec wire bounds cap what one frame can
// demand, but a network-reachable /ingest also needs an aggregate cap: each
// registered job eagerly allocates its task-state slice, so without a
// budget a stream of small spec frames with distinct job IDs could grow
// server memory without limit. The defaults admit thousands of real trace
// jobs while bounding eagerly allocated task state.
const (
	// DefaultMaxJobs bounds concurrently registered (not dropped) jobs.
	DefaultMaxJobs = 1 << 16
	// DefaultMaxTasks bounds the summed NumTasks of registered jobs.
	DefaultMaxTasks = 1 << 22
)

// Config sizes a Server.
type Config struct {
	// Shards is the number of independent job shards (defaults to
	// 2*GOMAXPROCS, capped at 64). Jobs are routed to shards by a
	// splitmix64 hash of their ID (see registry.shardFor), so sequential
	// control-plane IDs spread evenly: over any large ID population no
	// shard receives more than about its fair share (the distribution is
	// test-enforced at <2x the mean over 10k sequential IDs). The count is
	// a concurrency knob only — it does not affect results, and a snapshot
	// taken at one shard count restores cleanly at another.
	Shards int
	// NewPredictor builds a predictor for jobs registered without an
	// explicit one. The default constructs the paper's NURD configuration
	// seeded from the JobSpec, with the per-dataset confirmation rule.
	//
	// RestoreServer and Recover also rebuild every job's predictor through
	// this factory (a snapshot carries the accepted stream, not model
	// internals), so a deployment that passes explicit predictors to
	// StartJob must supply an equivalent factory here for restores to be
	// faithful. The factory
	// must be deterministic: given the same spec and the same sequence of
	// checkpoint views, it must issue the same verdicts (true of every
	// predictor in this repository — model fits draw from a fresh
	// spec-seeded RNG per refit).
	NewPredictor func(spec wire.JobSpec) simulator.Predictor
	// MaxJobs bounds the number of concurrently registered (not yet
	// dropped) jobs; registrations beyond it fail with ErrOverloaded.
	// Values below 1 mean DefaultMaxJobs.
	MaxJobs int
	// MaxTasks bounds the summed NumTasks of registered jobs — the
	// server's eagerly allocated task-state footprint. Registrations that
	// would exceed it fail with ErrOverloaded. Values below 1 mean
	// DefaultMaxTasks. Restores obey the same budget, so a snapshot of a
	// server with a raised cap needs that cap at restore time too.
	MaxTasks int
	// RefitMode is the default refit strategy stamped into specs registered
	// with RefitModeDefault: RefitScratch (the paper's Table 3 path,
	// bit-identical to the offline replay; the default) or RefitWarm
	// (warm-started incremental boosting — each checkpoint extends the
	// previous checkpoint's ensemble, several times cheaper per refit with
	// seed-trace accuracy within a small epsilon of scratch). The resolved
	// mode travels with the spec through the WAL, so recovery
	// replays refits identically whatever this field says at restore time.
	RefitMode wire.RefitMode

	// IngestQueue bounds each shard's concurrently admitted ingest calls.
	// At the bound, heartbeats are shed (ErrShed — they carry refreshable
	// observations, not labels) and every other event class waits for a
	// slot. Values below 1 mean DefaultIngestQueue. See overload.go for the
	// shedding policy and its recovery-equivalence argument.
	IngestQueue int
	// ClientRate, when positive, arms per-client token-bucket rate
	// limiting on the HTTP front end: each ingest frame costs one token,
	// refilled at ClientRate tokens/s up to a burst of 2*ClientRate.
	// Clients are identified by the X-Nurd-Client header, falling back to
	// the remote host. Only the HTTP front enforces this — in-process
	// callers are trusted. 0 disables.
	ClientRate float64
}

// DefaultConfig returns a NURD-serving configuration.
func DefaultConfig() Config {
	shards := 2 * runtime.GOMAXPROCS(0)
	if shards > 64 {
		shards = 64
	}
	return Config{Shards: shards, NewPredictor: NewNURDPredictor,
		MaxJobs: DefaultMaxJobs, MaxTasks: DefaultMaxTasks}
}

// NewNURDPredictor is the default per-job predictor factory: the paper's
// NURD with the spec's seed and the per-dataset confirmation requirement.
// Specs registered in RefitWarm mode get the warm-refit configuration, so
// restores rebuild warm-mode jobs with warm-mode fits (the mode travels with
// the spec through the WAL).
func NewNURDPredictor(spec wire.JobSpec) simulator.Predictor {
	cfg := nurd.DefaultConfig()
	name := "NURD"
	if spec.RefitMode == wire.RefitWarm {
		cfg = nurd.DefaultWarmConfig()
		name = "NURD-warm"
	}
	cfg.Seed = spec.Seed
	return predictor.NewNURDWith(name, cfg, predictor.ConfirmFor(spec.Schema))
}

// Server is a concurrent, multi-job streaming straggler-prediction service.
// Jobs register with StartJob, stream lifecycle events through Ingest (from
// any number of goroutines), and can be queried at any time with Query.
// All state is partitioned across shards keyed by job ID; there is no
// global lock anywhere on the ingest or query path.
type Server struct {
	cfg Config
	reg *registry

	// wal, when non-nil, durably logs every accepted mutation so the server
	// can be rebuilt from its directory (see recover.go / Recover, and
	// package wal). Attached once by attachWAL before the server takes
	// traffic.
	wal *wal.WAL

	// Registration budget, checked against cfg.MaxJobs / cfg.MaxTasks:
	// the number of registered (not dropped) jobs and their summed
	// NumTasks. Atomics, not shard state, because the budget is global.
	jobs  atomic.Int64
	tasks atomic.Int64
}

// NewServer builds a server.
func NewServer(cfg Config) *Server {
	if cfg.Shards < 1 {
		cfg.Shards = DefaultConfig().Shards
	}
	if cfg.NewPredictor == nil {
		cfg.NewPredictor = NewNURDPredictor
	}
	orDefault(&cfg.MaxJobs, DefaultMaxJobs)
	orDefault(&cfg.MaxTasks, DefaultMaxTasks)
	orDefault(&cfg.IngestQueue, DefaultIngestQueue)
	if cfg.RefitMode == wire.RefitModeDefault {
		cfg.RefitMode = wire.RefitScratch
	}
	return &Server{cfg: cfg, reg: newRegistry(cfg)}
}

// orDefault replaces a bound below 1 with its default.
func orDefault(v *int, def int) {
	if *v < 1 {
		*v = def
	}
}

// reserve claims budget for one numTasks-task job, failing with
// ErrOverloaded if either cap would be exceeded. Claims go through a CAS
// loop, not add-then-check, so two registrations racing for one counter's
// last slot never reject each other. A registration that fails after
// reserving (duplicate ID, nil predictor, the other counter's cap) holds
// its claim until release, so a concurrent admission in that window can
// still see a transiently exhausted budget — 429 is retryable by design.
func (sv *Server) reserve(numTasks int) error {
	overloaded := func(cap string) error {
		return fmt.Errorf("%w: registering a %d-task job would exceed %s (budget %d jobs / %d tasks; drop finished jobs to free it)",
			ErrOverloaded, numTasks, cap, sv.cfg.MaxJobs, sv.cfg.MaxTasks)
	}
	if !admit(&sv.jobs, 1, int64(sv.cfg.MaxJobs)) {
		return overloaded("MaxJobs")
	}
	if !admit(&sv.tasks, int64(numTasks), int64(sv.cfg.MaxTasks)) {
		sv.jobs.Add(-1)
		return overloaded("MaxTasks")
	}
	return nil
}

// admit atomically raises c by n unless that would push it past max.
func admit(c *atomic.Int64, n, max int64) bool {
	for {
		cur := c.Load()
		if cur+n > max {
			return false
		}
		if c.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// release returns a reserve claim (job dropped, or registration failed).
func (sv *Server) release(numTasks int) {
	sv.jobs.Add(-1)
	sv.tasks.Add(int64(-numTasks))
}

// attachWAL wires w into the server and every shard. It must run before
// the server takes any traffic (Recover, the only caller, does); attaching
// to a live server would race the shards' lock-free wal reads.
func (sv *Server) attachWAL(w *wal.WAL) {
	sv.wal = w
	sv.reg.each(func(s *shard) { s.wal = w })
}

// WAL returns the attached write-ahead log, nil when the server runs
// without one.
func (sv *Server) WAL() *wal.WAL { return sv.wal }

// NumShards reports the shard count.
func (sv *Server) NumShards() int { return len(sv.reg.shards) }

// Budget returns the admission-budget counters — registered jobs and the
// sum of their task counts — as atomically maintained by StartJob and
// DropJob. They are intentionally independent of the registry's own
// accounting (Stats.Jobs), so recovery tests can cross-check the two and
// catch a double-applied WAL record.
func (sv *Server) Budget() (jobs, tasks int64) { return sv.jobs.Load(), sv.tasks.Load() }

// Config returns the server's resolved configuration (after defaulting).
// Transport front ends read it to mirror the node's admission policy —
// e.g. the HTTP front builds its per-client rate limiter from ClientRate.
func (sv *Server) Config() Config { return sv.cfg }

// JobIDs lists every registered (not yet dropped) job in ascending ID
// order. The listing is a point-in-time view: jobs registered or dropped
// concurrently may or may not appear.
func (sv *Server) JobIDs() []uint64 {
	var ids []uint64
	sv.reg.each(func(s *shard) { ids = append(ids, s.jobIDs()...) })
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// commit makes the WAL record staged at lsn — and every record staged
// before it — acknowledgeable. lsn 0 (no WAL, or nothing logged) is a no-op.
func (sv *Server) commit(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	return sv.wal.Commit(lsn)
}

// StartJob registers a job. pred supplies the job's predictor; nil uses the
// server's Config.NewPredictor factory. The spec fills in unset monitoring
// defaults (10 checkpoints, 4% warmup, p90 quantile) before validation.
func (sv *Server) StartJob(spec wire.JobSpec, pred simulator.Predictor) error {
	lsn, err := sv.stageJob(spec, pred)
	if err != nil {
		return err
	}
	return sv.commit(lsn)
}

func (sv *Server) stageJob(spec wire.JobSpec, pred simulator.Predictor) (uint64, error) {
	if spec.Checkpoints == 0 {
		spec.Checkpoints = simulator.DefaultConfig().Checkpoints
	}
	if spec.WarmFrac == 0 {
		spec.WarmFrac = simulator.DefaultConfig().WarmFrac
	}
	if spec.StragglerQuantile == 0 {
		spec.StragglerQuantile = simulator.DefaultConfig().StragglerQuantile
	}
	// Resolve the refit mode before validation or logging:
	// durable state always carries a concrete strategy, so recovery refits
	// exactly as the live server did regardless of its own configuration.
	if spec.RefitMode == wire.RefitModeDefault {
		spec.RefitMode = sv.cfg.RefitMode
	}
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	if err := sv.reserve(spec.NumTasks); err != nil {
		return 0, fmt.Errorf("serve: job %d: %w", spec.JobID, err)
	}
	if pred == nil {
		pred = sv.cfg.NewPredictor(spec)
	}
	if pred == nil {
		sv.release(spec.NumTasks)
		return 0, fmt.Errorf("serve: job %d: nil predictor", spec.JobID)
	}
	lsn, err := sv.reg.shardFor(spec.JobID).startJob(spec, pred)
	if err != nil {
		sv.release(spec.NumTasks)
		return 0, err
	}
	return lsn, nil
}

// Ingest applies one lifecycle event. Events of one job must arrive in
// non-decreasing Time order; different jobs' events may be ingested
// concurrently from many goroutines. With a WAL attached the event's
// record is written before Ingest returns. The server copies e.Features, so
// the caller may reuse the slice once Ingest returns.
func (sv *Server) Ingest(e wire.Event) error {
	var b body // a run of one
	err := sv.reg.shardFor(e.JobID).ingest(&e, &b)
	if eerr := b.end(nil); err == nil {
		err = eerr
	}
	if err != nil {
		return err
	}
	return sv.commit(b.lsn)
}

// DropJob discards a finished job's state and releases its registration
// budget.
func (sv *Server) DropJob(jobID uint64) error {
	lsn, err := sv.dropJob(jobID)
	if err != nil {
		return err
	}
	return sv.commit(lsn)
}

func (sv *Server) dropJob(jobID uint64) (uint64, error) {
	numTasks, lsn, err := sv.reg.shardFor(jobID).dropJob(jobID)
	if err != nil {
		return 0, err
	}
	sv.release(numTasks)
	return lsn, nil
}

// Query answers a batched per-task straggler query against the job's
// current models and tau_stra threshold.
func (sv *Server) Query(jobID uint64, taskIDs []int) ([]TaskVerdict, error) {
	return sv.QueryAppend(nil, jobID, taskIDs)
}

// QueryAppend is Query into caller-owned storage: it appends one verdict
// per task ID to dst and returns the extended slice, so a caller that
// queries in a loop (the HTTP front) reuses one slab instead of allocating
// a pointer-bearing slice per call. dst grows once, and each verdict is
// written in place in its slot. The appended verdicts are copies — no
// later server activity changes them. A non-nil Prediction points into one
// slab the call allocated for all of its predictions; treat it as
// immutable.
func (sv *Server) QueryAppend(dst []TaskVerdict, jobID uint64, taskIDs []int) ([]TaskVerdict, error) {
	return sv.reg.shardFor(jobID).query(dst, jobID, taskIDs)
}

// Report summarizes one job's serving run.
func (sv *Server) Report(jobID uint64) (*JobReport, error) {
	return sv.reg.shardFor(jobID).report(jobID)
}

// Stats aggregates counters across all shards, plus the WAL's when one is
// attached.
func (sv *Server) Stats() Stats {
	var st Stats
	sv.reg.each(func(s *shard) { s.addStats(&st) })
	st.Overload.IngestQueueBound = sv.cfg.IngestQueue
	if sv.wal != nil {
		w := sv.wal.Stats()
		st.WAL = &w
	}
	return st
}
