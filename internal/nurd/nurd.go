// Package nurd implements the paper's primary contribution: NURD, a
// negative-unlabeled learning approach for online straggler prediction
// (Algorithm 1). NURD trains a latency predictor h_t on finished
// (non-straggler) tasks only, estimates each running task's propensity score
// z = P(finished | x) with a logistic model g_t, and divides the latency
// prediction by a calibrated weight
//
//	w = max(epsilon, min(z + delta, 1)),   delta = 1/(1+rho) - alpha,
//	rho = ||c_fin||_2 / ||c_run - c_fin||_2,
//
// so that tasks whose features look unlike any finished task get their
// predicted latency dilated toward the straggler threshold. Setting
// Calibrate=false yields the NURD-NC ablation (w = z, no delta term).
package nurd

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/gbt"
	"repro/internal/linmodel"
	"repro/internal/vecmath"
)

// Config holds NURD's hyperparameters. The defaults are the paper's
// (alpha = 0.5, epsilon = 0.05, gradient-boosted trees for h_t, logistic
// regression for g_t).
type Config struct {
	// Alpha bounds the calibration term: delta in (-Alpha, Alpha).
	Alpha float64
	// Epsilon is the minimum positive weight.
	Epsilon float64
	// Calibrate toggles the delta term; false reproduces NURD-NC.
	Calibrate bool
	// GBT configures the latency model h_t.
	GBT gbt.Config
	// Logistic configures the propensity model g_t.
	Logistic linmodel.LogisticConfig
	// MinFinishedFrac gates prediction: until this fraction of tasks has
	// finished, both h_t and g_t are too starved to act on, and NURD defers
	// (the paper's Figure 2 likewise shows NURD is not yet ahead "at the
	// very beginning" of a job).
	MinFinishedFrac float64
	// Seed drives the GBT's stochastic components.
	Seed uint64
	// WarmRounds, when positive, makes Refit warm-start the latency model:
	// instead of refitting h_t from scratch, checkpoint k's ensemble extends
	// checkpoint k-1's by WarmRounds additional boosting rounds fitted
	// against the updated finished set's residuals (gbt.Model.Extend). 0
	// (the default) keeps every refit a full scratch fit — the paper's
	// Table 3 path, bit-identical checkpoint by checkpoint.
	WarmRounds int
	// WarmMaxTrees bounds the warm-started ensemble. An extension that would
	// exceed it falls back to one scratch refit (re-shrinking the ensemble to
	// GBT.NumTrees), after which extensions resume — both the fallback
	// decision and the resulting model are deterministic functions of the
	// training views. 0 means 8x GBT.NumTrees.
	WarmMaxTrees int
}

// DefaultConfig returns the paper's hyperparameters.
func DefaultConfig() Config {
	lcfg := linmodel.DefaultLogisticConfig()
	// The propensity model is trained on the finished-vs-running split,
	// which is heavily skewed at early checkpoints; balanced class weights
	// keep z comparable across checkpoints so the weighting function retains
	// its (0,1] semantics throughout the job (Cepeda et al. 2003 estimate
	// propensity scores the same way under rare exposure).
	lcfg.Balanced = true
	// The penalty the offline sweep picks for the converged fit: it
	// maximises the smaller of the Google and Alibaba gains in mean NURD F1
	// (README, "The propensity fit").
	lcfg.L2 = 3e-2
	return Config{
		// Delta scale; see Init for how it maps onto the paper's Eq. 3
		// under balanced propensity scores.
		Alpha:           0.2,
		Epsilon:         0.05,
		Calibrate:       true,
		GBT:             gbt.DefaultConfig(),
		Logistic:        lcfg,
		MinFinishedFrac: 0.15,
	}
}

// DefaultWarmRounds is the serving layer's warm-refit tuning: enough rounds
// per checkpoint for the extended ensemble to track the drifting finished-set
// distribution (seed-trace F1 within a small epsilon of scratch refits —
// test-enforced in internal/serve) at a third of a scratch fit's trees. That
// is not a third of the refit's cost: an extension also pays the presort and
// the predictions of the trees it keeps, and the propensity fit both modes
// share comes on top of either, so a warm refit costs well over a third of a
// scratch one (bench --trace 1 reads gbt.extend_ms_per_view against
// gbt.fit_ms_per_view; BenchmarkRefitWarm against BenchmarkRefitScratch the
// whole refit).
const DefaultWarmRounds = 16

// DefaultWarmConfig returns DefaultConfig with warm-started refits enabled
// at the serving layer's tuning.
func DefaultWarmConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmRounds = DefaultWarmRounds
	return cfg
}

// Model is a NURD predictor for one job. Construct with New, call Init once
// with the initial finished/running split, then Update+Predict at each
// checkpoint. Between refits a Model holds its fitted models and nothing of
// the fits that made them: a refit borrows its working memory from pools
// (gbt's fit scratch, propPool here) and returns it before it returns, so a
// finished job's model keeps only what Predict reads.
type Model struct {
	cfg Config

	// rho and delta are fixed at Init (Algorithm 1 lines 4-6).
	rho   float64
	delta float64
	ready bool

	h  *gbt.Model         // latency predictor
	hc *gbt.Flat          // h compiled into the flat SoA engine; replaced with h
	g  *linmodel.Logistic // propensity model

	// warmFits / scratchFits count how the latency model was refitted
	// (Extend vs FitRegressor); serving telemetry reads them via RefitCounts.
	warmFits, scratchFits uint64
}

// New constructs an unfitted model.
func New(cfg Config) *Model {
	if cfg.Alpha <= 0 {
		cfg.Alpha = 0.5
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 0.05
	}
	return &Model{cfg: cfg}
}

// Rho returns the centroid ratio computed at Init.
func (m *Model) Rho() float64 { return m.rho }

// Delta returns the calibration term computed at Init.
func (m *Model) Delta() float64 { return m.delta }

// Init computes the latency indicator rho and calibration term delta from
// the initial finished/running feature centroids (Algorithm 1 lines 4-6).
// It must be called once before Update.
func (m *Model) Init(finX, runX [][]float64) error {
	if len(finX) == 0 || len(runX) == 0 {
		return fmt.Errorf("nurd: Init requires non-empty finished (%d) and running (%d) sets",
			len(finX), len(runX))
	}
	cFin := vecmath.Centroid(finX)
	cRun := vecmath.Centroid(runX)
	gap := vecmath.Norm2(vecmath.Sub(cRun, cFin))
	if gap < 1e-12 {
		gap = 1e-12
	}
	m.rho = vecmath.Norm2(cFin) / gap
	// The paper's Eq. 3 (delta = 1/(1+rho) - alpha) shifts raw-rate
	// propensity scores, whose center drifts with the finished fraction.
	// With balanced scores centered at 1/2 the equivalent recentred form is
	// a pure positive easing term that decays with rho: large when
	// stragglers are feature-distant (rho <= 1, threshold below half-max —
	// ease dilation, cut false positives) and near zero when they are
	// feature-close (rho >> 1 — keep dilation, preserve true positives).
	// See EXPERIMENTS.md "Hyperparameters" for the mapping.
	m.delta = m.cfg.Alpha / (1 + m.rho)
	m.ready = true
	return nil
}

// Update refits the latency model h_t from scratch on the finished tasks and
// the propensity model g_t on the finished-vs-running split (Algorithm 1 line
// 11). Call at every checkpoint with the accumulated finished set. Refit is
// the strategy-dispatching entry point; Update is always the scratch path.
func (m *Model) Update(finX [][]float64, finY []float64, runX [][]float64) error {
	if err := m.checkTrain(finX, finY); err != nil {
		return err
	}
	gcfg := m.cfg.GBT
	gcfg.Seed = m.cfg.Seed
	h, err := gbt.FitRegressor(finX, finY, gcfg)
	if err != nil {
		return fmt.Errorf("nurd: fitting latency model: %w", err)
	}
	m.setLatencyModel(h)
	m.scratchFits++
	return m.fitPropensity(finX, runX)
}

// Refit refits the models for a new checkpoint view like Update, but
// warm-starts the latency model from the previous checkpoint's ensemble when
// the configuration enables it (Config.WarmRounds > 0) and a previous model
// exists. The first gated checkpoint always fits from scratch; when an
// extension would push the ensemble past the WarmMaxTrees budget, one scratch
// refit re-shrinks it and extensions resume. With WarmRounds 0 Refit is
// exactly Update, so the scratch configuration stays bit-identical to the
// paper's Table 3 path.
func (m *Model) Refit(finX [][]float64, finY []float64, runX [][]float64) error {
	if m.cfg.WarmRounds <= 0 || m.h == nil {
		return m.Update(finX, finY, runX)
	}
	budget := m.cfg.WarmMaxTrees
	if budget <= 0 {
		nt := m.cfg.GBT.NumTrees
		if nt <= 0 {
			nt = gbt.DefaultConfig().NumTrees
		}
		budget = 8 * nt
	}
	if len(m.h.Trees)+m.cfg.WarmRounds > budget {
		return m.Update(finX, finY, runX)
	}
	if err := m.checkTrain(finX, finY); err != nil {
		return err
	}
	gcfg := m.cfg.GBT
	gcfg.Seed = m.cfg.Seed
	h, err := m.h.Extend(finX, finY, m.cfg.WarmRounds, gcfg)
	if err != nil {
		return fmt.Errorf("nurd: extending latency model: %w", err)
	}
	m.setLatencyModel(h)
	m.warmFits++
	return m.fitPropensity(finX, runX)
}

// setLatencyModel installs a freshly fitted ensemble and compiles it into
// the flat SoA engine every query rides. Compilation happens here — on the
// refit path, off the ingest/query hot paths — so published models always
// carry a ready compiled artifact; because the fit itself is deterministic
// given the training view, snapshot/WAL recovery replays the same fits and
// regenerates bit-identical compiled engines for every generation.
func (m *Model) setLatencyModel(h *gbt.Model) {
	m.h = h
	m.hc = h.Compile()
}

// RefitCounts reports how many refits warm-started the latency model vs
// fitted it from scratch (serving telemetry; the split is deterministic given
// the sequence of training views).
func (m *Model) RefitCounts() (warm, scratch uint64) { return m.warmFits, m.scratchFits }

// checkTrain validates a checkpoint's training inputs.
func (m *Model) checkTrain(finX [][]float64, finY []float64) error {
	if !m.ready {
		return fmt.Errorf("nurd: Update called before Init")
	}
	if len(finX) == 0 {
		return fmt.Errorf("nurd: no finished tasks to train on")
	}
	if len(finX) != len(finY) {
		return fmt.Errorf("nurd: %d finished rows with %d latencies", len(finX), len(finY))
	}
	return nil
}

// propScratch is fitPropensity's working memory: the log-feature training
// matrix (row-major), its labels, and the logistic fit's scratch.
type propScratch struct {
	x, y []float64
	fit  linmodel.LogisticScratch
}

var propPool = sync.Pool{New: func() any { return new(propScratch) }}

// fitPropensity refits g_t on the finished-vs-running split; both refit
// strategies share it (its cost: go test ./internal/linmodel -bench
// FitLogistic).
// The log-feature matrix, its labels and the fit's working memory come from
// propPool and go back to it, so once the pool holds a scratch as large as
// the split only the fitted model is allocated, and no model keeps them.
func (m *Model) fitPropensity(finX, runX [][]float64) error {
	if len(runX) == 0 {
		// Nothing running: keep the previous propensity model if any; a nil
		// g makes Predict fall back to w = 1.
		return nil
	}
	n, d := len(finX)+len(runX), len(finX[0])
	s := propPool.Get().(*propScratch)
	defer propPool.Put(s)
	if cap(s.x) < n*d {
		s.x = make([]float64, n*d)
	}
	if cap(s.y) < n {
		s.y = make([]float64, n)
	}
	s.x, s.y = s.x[:n*d], s.y[:n]
	i := 0
	fill := func(rows [][]float64, label float64) error {
		for _, x := range rows {
			if len(x) != d {
				return fmt.Errorf("nurd: fitting propensity model: row with %d features among rows of %d", len(x), d)
			}
			logFeaturesInto(x, s.x[i*d:(i+1)*d])
			s.y[i] = label
			i++
		}
		return nil
	}
	if err := fill(finX, 1); err != nil { // finished class
		return err
	}
	if err := fill(runX, 0); err != nil {
		return err
	}
	g, err := linmodel.FitLogisticFlat(s.x, d, s.y, m.cfg.Logistic, &s.fit)
	if err != nil {
		return fmt.Errorf("nurd: fitting propensity model: %w", err)
	}
	m.g = g
	return nil
}

// Prediction breaks out NURD's per-task quantities for one running task.
type Prediction struct {
	// Latency is the raw prediction of h_t.
	Latency float64
	// Propensity is z = P(finished | x) from g_t (1 when no model exists).
	Propensity float64
	// Weight is the final clipped weighting value w.
	Weight float64
	// Adjusted is Latency / Weight, compared against tau_stra.
	Adjusted float64
}

// Predict evaluates one running task (Algorithm 1 lines 13-16) through the
// compiled flat engine. A row too narrow for either model returns a typed
// error before any model is evaluated instead of panicking inside one:
// errors.Is gbt.ErrRowWidth below the ensemble's max split feature,
// linmodel.ErrRowWidth below g_t's width.
func (m *Model) Predict(x []float64) (Prediction, error) {
	if m.h == nil {
		return Prediction{}, fmt.Errorf("nurd: Predict called before Update")
	}
	if err := m.checkWidth(len(x)); err != nil {
		return Prediction{}, fmt.Errorf("nurd: %w", err)
	}
	p := Prediction{Latency: m.hc.Predict(x), Propensity: 1}
	if m.g != nil {
		// The trace schemas are at most 15 columns wide, so the log-feature
		// row of a verdict lives on the stack; wider rows fall back to make.
		var buf [16]float64
		p.Propensity = m.g.Prob(logFeaturesInto(x, buf[:0]))
	}
	return m.finishPrediction(p), nil
}

// checkWidth rejects rows of n columns that h_t's trees or g_t's weights
// would index past. The trees may split on few columns, so a row they accept
// can still be too narrow for g_t, which reads every column it was fitted on.
func (m *Model) checkWidth(n int) error {
	if err := m.hc.CheckWidth(n); err != nil {
		return err
	}
	if m.g != nil {
		return m.g.CheckWidth(n)
	}
	return nil
}

// finishPrediction applies the shared calibration/clipping tail of
// Algorithm 1 lines 14-16 to a raw (Latency, Propensity) pair.
func (m *Model) finishPrediction(p Prediction) Prediction {
	w := p.Propensity
	if m.cfg.Calibrate {
		w += m.delta
	}
	if w > 1 {
		w = 1
	}
	if w < m.cfg.Epsilon {
		w = m.cfg.Epsilon
	}
	p.Weight = w
	p.Adjusted = p.Latency / w
	return p
}

// PredictScratch holds the reusable buffers of a PredictBatch caller; its
// zero value is ready to use. Not safe for concurrent use — each batching
// caller (e.g. a predictor evaluating one checkpoint) owns its own.
type PredictScratch struct {
	preds []Prediction
	lat   []float64
	logx  []float64
}

// PredictBatch evaluates every running row of X, bit-identical to calling
// Predict per row but with one task-major pass through the compiled flat
// ensemble and no per-row allocations (buffers live in scratch and are
// reused across calls; the returned slice aliases scratch and is only valid
// until the next call). scratch may be nil for a one-shot call.
func (m *Model) PredictBatch(X [][]float64, scratch *PredictScratch) ([]Prediction, error) {
	if m.h == nil {
		return nil, fmt.Errorf("nurd: Predict called before Update")
	}
	for i, x := range X {
		if err := m.checkWidth(len(x)); err != nil {
			return nil, fmt.Errorf("nurd: row %d: %w", i, err)
		}
	}
	if scratch == nil {
		scratch = &PredictScratch{}
	}
	scratch.lat = m.hc.PredictBatchInto(X, scratch.lat)
	if cap(scratch.preds) < len(X) {
		scratch.preds = make([]Prediction, len(X))
	}
	out := scratch.preds[:len(X)]
	for i, x := range X {
		p := Prediction{Latency: scratch.lat[i], Propensity: 1}
		if m.g != nil {
			scratch.logx = logFeaturesInto(x, scratch.logx)
			p.Propensity = m.g.Prob(scratch.logx)
		}
		out[i] = m.finishPrediction(p)
	}
	return out, nil
}

// logFeaturesInto maps each non-negative monitored feature through log1p so
// the logistic propensity model sees heavy-tailed usage metrics (IO time,
// CPI, disk) on a scale where its linear boundary can separate the bulk
// from shifted tasks. Tree models are invariant to monotone transforms, so
// only g_t uses it. Negative values (none in the trace schemas) pass
// through untouched. out is a reusable output buffer, grown when too small,
// so fitting and prediction allocate no row per task.
func logFeaturesInto(x, out []float64) []float64 {
	if cap(out) < len(x) {
		out = make([]float64, len(x))
	} else {
		out = out[:len(x)]
	}
	for i, v := range x {
		if v > 0 {
			out[i] = math.Log1p(v)
		} else {
			out[i] = v
		}
	}
	return out
}
