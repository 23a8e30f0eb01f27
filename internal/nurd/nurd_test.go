package nurd

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gbt"
	"repro/internal/linmodel"
	"repro/internal/stats"
)

// split builds a finished/running partition with the running centroid
// shifted by gap along every axis.
func split(nFin, nRun, d int, gap float64, seed uint64) (fin, run [][]float64, finY []float64) {
	rng := stats.NewRNG(seed)
	for i := 0; i < nFin; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = 1 + rng.Normal(0, 0.3)
		}
		fin = append(fin, row)
		finY = append(finY, 10+rng.Normal(0, 1))
	}
	for i := 0; i < nRun; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = 1 + gap + rng.Normal(0, 0.3)
		}
		run = append(run, row)
	}
	return
}

func TestInitRequiresBothSets(t *testing.T) {
	m := New(DefaultConfig())
	if err := m.Init(nil, [][]float64{{1}}); err == nil {
		t.Fatal("expected error with empty finished set")
	}
	if err := m.Init([][]float64{{1}}, nil); err == nil {
		t.Fatal("expected error with empty running set")
	}
}

func TestRhoDecreasesWithGap(t *testing.T) {
	finNear, runNear, _ := split(50, 50, 4, 0.1, 1)
	finFar, runFar, _ := split(50, 50, 4, 3.0, 1)
	mNear := New(DefaultConfig())
	if err := mNear.Init(finNear, runNear); err != nil {
		t.Fatal(err)
	}
	mFar := New(DefaultConfig())
	if err := mFar.Init(finFar, runFar); err != nil {
		t.Fatal(err)
	}
	if mFar.Rho() >= mNear.Rho() {
		t.Fatalf("rho should shrink with centroid gap: far %v >= near %v", mFar.Rho(), mNear.Rho())
	}
}

func TestDeltaMonotoneInRho(t *testing.T) {
	// delta = alpha/(1+rho): positive and decreasing in rho.
	fin1, run1, _ := split(50, 50, 3, 0.2, 2)
	fin2, run2, _ := split(50, 50, 3, 4.0, 2)
	a := New(DefaultConfig())
	b := New(DefaultConfig())
	if err := a.Init(fin1, run1); err != nil {
		t.Fatal(err)
	}
	if err := b.Init(fin2, run2); err != nil {
		t.Fatal(err)
	}
	if a.Delta() <= 0 || b.Delta() <= 0 {
		t.Fatalf("delta must be positive: %v %v", a.Delta(), b.Delta())
	}
	if b.Rho() < a.Rho() && b.Delta() < a.Delta() {
		t.Fatalf("delta not decreasing in rho: rho %v->%v delta %v->%v",
			a.Rho(), b.Rho(), a.Delta(), b.Delta())
	}
}

func TestUpdateBeforeInitFails(t *testing.T) {
	m := New(DefaultConfig())
	if err := m.Update([][]float64{{1}}, []float64{1}, [][]float64{{2}}); err == nil {
		t.Fatal("expected error before Init")
	}
}

func TestPredictBeforeUpdateFails(t *testing.T) {
	fin, run, _ := split(20, 20, 2, 1, 3)
	m := New(DefaultConfig())
	if err := m.Init(fin, run); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(run[0]); err == nil {
		t.Fatal("expected error before Update")
	}
}

func TestWeightBounds(t *testing.T) {
	fin, run, finY := split(80, 40, 4, 2, 4)
	cfg := DefaultConfig()
	m := New(cfg)
	if err := m.Init(fin, run); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(fin, finY, run); err != nil {
		t.Fatal(err)
	}
	check := func(x []float64) {
		p, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if p.Weight < cfg.Epsilon-1e-12 || p.Weight > 1+1e-12 {
			t.Fatalf("weight %v outside [eps, 1]", p.Weight)
		}
		if p.Adjusted < p.Latency-1e-9 {
			t.Fatalf("adjusted %v below raw %v: weighting must only dilate", p.Adjusted, p.Latency)
		}
		if p.Propensity < 0 || p.Propensity > 1 {
			t.Fatalf("propensity %v out of range", p.Propensity)
		}
	}
	for _, x := range fin[:10] {
		check(x)
	}
	for _, x := range run[:10] {
		check(x)
	}
}

func TestDissimilarTasksDilatedMore(t *testing.T) {
	// Running tasks far from the finished cluster must receive smaller
	// weights (greater dilation) than tasks resembling finished ones.
	fin, run, finY := split(100, 50, 4, 3, 5)
	m := New(DefaultConfig())
	if err := m.Init(fin, run); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(fin, finY, run); err != nil {
		t.Fatal(err)
	}
	pFin, err := m.Predict(fin[0]) // looks finished
	if err != nil {
		t.Fatal(err)
	}
	pRun, err := m.Predict(run[0]) // looks like the shifted running group
	if err != nil {
		t.Fatal(err)
	}
	if pRun.Weight >= pFin.Weight {
		t.Fatalf("shifted task weight %v >= finished-like weight %v", pRun.Weight, pFin.Weight)
	}
	if pRun.Adjusted/pRun.Latency <= pFin.Adjusted/pFin.Latency {
		t.Fatal("shifted task should be dilated more")
	}
}

func TestNCDisablesCalibration(t *testing.T) {
	fin, run, finY := split(60, 30, 3, 1, 6)
	cfg := DefaultConfig()
	cfg.Calibrate = false
	m := New(cfg)
	if err := m.Init(fin, run); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(fin, finY, run); err != nil {
		t.Fatal(err)
	}
	p, err := m.Predict(run[0])
	if err != nil {
		t.Fatal(err)
	}
	// Without calibration w = clip(z): given z in (eps, 1) the weight equals
	// the propensity exactly.
	want := p.Propensity
	if want > 1 {
		want = 1
	}
	if want < cfg.Epsilon {
		want = cfg.Epsilon
	}
	if math.Abs(p.Weight-want) > 1e-12 {
		t.Fatalf("NC weight %v != clipped propensity %v", p.Weight, want)
	}
}

func TestLogFeaturesMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a, b = math.Abs(a), math.Abs(b)
		la := logFeaturesInto([]float64{a}, nil)[0]
		lb := logFeaturesInto([]float64{b}, nil)[0]
		if a < b {
			return la <= lb
		}
		return la >= lb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightInvariantProperty(t *testing.T) {
	fin, run, finY := split(60, 40, 3, 1.5, 8)
	m := New(DefaultConfig())
	if err := m.Init(fin, run); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(fin, finY, run); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	f := func(seed uint64) bool {
		x := []float64{rng.Normal(1, 2), rng.Normal(1, 2), rng.Normal(1, 2)}
		p, err := m.Predict(x)
		if err != nil {
			return false
		}
		return p.Weight >= 0.05-1e-12 && p.Weight <= 1+1e-12 &&
			!math.IsNaN(p.Adjusted) && !math.IsInf(p.Adjusted, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRefitScratchIdentity: with WarmRounds 0 (the default), Refit is
// bit-identical to Update — the serving layer's scratch mode leans on this.
func TestRefitScratchIdentity(t *testing.T) {
	fin, run, finY := split(80, 40, 4, 2, 9)
	a, b := New(DefaultConfig()), New(DefaultConfig())
	for _, m := range []*Model{a, b} {
		if err := m.Init(fin, run); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Update(fin, finY, run); err != nil {
		t.Fatal(err)
	}
	if err := b.Refit(fin, finY, run); err != nil {
		t.Fatal(err)
	}
	for _, x := range append(append([][]float64{}, fin[:5]...), run[:5]...) {
		pa, _ := a.Predict(x)
		pb, _ := b.Predict(x)
		if pa != pb {
			t.Fatalf("Refit(WarmRounds=0) diverges from Update: %+v vs %+v", pb, pa)
		}
	}
	if w, s := b.RefitCounts(); w != 0 || s != 1 {
		t.Fatalf("scratch Refit counted warm=%d scratch=%d, want 0/1", w, s)
	}
}

// TestRefitWarmExtends: warm configurations scratch-fit the first checkpoint,
// extend subsequent ones by WarmRounds trees, and keep counts.
func TestRefitWarmExtends(t *testing.T) {
	fin, run, finY := split(120, 60, 4, 2, 11)
	cfg := DefaultWarmConfig()
	m := New(cfg)
	if err := m.Init(fin, run); err != nil {
		t.Fatal(err)
	}
	if err := m.Refit(fin[:60], finY[:60], run); err != nil {
		t.Fatal(err)
	}
	base := m.latencyModelTrees()
	if base != cfg.GBT.NumTrees {
		t.Fatalf("first refit grew %d trees, want a full scratch fit of %d", base, cfg.GBT.NumTrees)
	}
	for i := 1; i <= 3; i++ {
		if err := m.Refit(fin, finY, run); err != nil {
			t.Fatal(err)
		}
		if got, want := m.latencyModelTrees(), base+i*cfg.WarmRounds; got != want {
			t.Fatalf("refit %d: ensemble has %d trees, want %d", i, got, want)
		}
	}
	if w, s := m.RefitCounts(); w != 3 || s != 1 {
		t.Fatalf("counts warm=%d scratch=%d, want 3/1", w, s)
	}
}

// TestRefitWarmBudgetFallsBackToScratch: an extension that would exceed
// warmBudget times GBT.NumTrees re-shrinks the ensemble with one scratch fit,
// then resumes extending.
func TestRefitWarmBudgetFallsBackToScratch(t *testing.T) {
	fin, run, finY := split(100, 50, 4, 2, 13)
	cfg := DefaultWarmConfig()
	// A budget of 8·2 = 16 trees: room for exactly one extension by 14.
	cfg.GBT.NumTrees, cfg.WarmRounds = 2, 14
	m := New(cfg)
	if err := m.Init(fin, run); err != nil {
		t.Fatal(err)
	}
	sizes := []int{}
	for i := 0; i < 4; i++ {
		if err := m.Refit(fin, finY, run); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, m.latencyModelTrees())
	}
	nt, wr := cfg.GBT.NumTrees, cfg.WarmRounds
	want := []int{nt, nt + wr, nt, nt + wr} // 2, 16, 2, 16: scratch, extend, budget-fallback scratch, extend
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("refit %d: %d trees, want %d (sizes %v)", i, sizes[i], want[i], sizes)
		}
	}
	if w, s := m.RefitCounts(); w != 2 || s != 2 {
		t.Fatalf("counts warm=%d scratch=%d, want 2/2", w, s)
	}
}

// TestRefitWarmDeterministic: two models fed the same view sequence under the
// same warm configuration answer identically — the invariant that lets crash
// recovery replay warm refits.
func TestRefitWarmDeterministic(t *testing.T) {
	fin, run, finY := split(120, 60, 4, 2, 15)
	build := func() *Model {
		m := New(DefaultWarmConfig())
		if err := m.Init(fin, run); err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{50, 80, 120} {
			if err := m.Refit(fin[:cut], finY[:cut], run); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	a, b := build(), build()
	for _, x := range run {
		pa, _ := a.Predict(x)
		pb, _ := b.Predict(x)
		if pa != pb {
			t.Fatalf("warm replay diverged: %+v vs %+v", pa, pb)
		}
	}
}

// PredictBatch must be bit-identical to per-row Predict — same node table,
// same accumulation order — with the scratch reused across checkpoints,
// after scratch and warm refits alike. That the table's sign-bit walk
// reproduces a per-tree branching walk is gbt's TestFlatBitIdenticalProperty,
// extended models included.
func TestPredictBatchMatchesPredict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Calibrate = true
	cfg.WarmRounds = 4
	m := New(cfg)
	fin, run, _ := split(80, 40, 5, 1.0, 21)
	if err := m.Init(fin, run); err != nil {
		t.Fatal(err)
	}
	if m.h != nil {
		t.Fatal("latency model before first Update")
	}
	var scratch PredictScratch
	for ckpt := 0; ckpt < 3; ckpt++ {
		fin2, run2, finY2 := split(80+20*ckpt, 40, 5, 1.0, 21+uint64(ckpt))
		if err := m.Refit(fin2, finY2, run2); err != nil {
			t.Fatal(err)
		}
		batch, err := m.PredictBatch(run2, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range run2 {
			want, err := m.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			got := batch[i]
			if math.Float64bits(got.Latency) != math.Float64bits(want.Latency) ||
				math.Float64bits(got.Propensity) != math.Float64bits(want.Propensity) ||
				math.Float64bits(got.Weight) != math.Float64bits(want.Weight) ||
				math.Float64bits(got.Adjusted) != math.Float64bits(want.Adjusted) {
				t.Fatalf("checkpoint %d row %d: batch %+v, per-row %+v", ckpt, i, got, want)
			}
		}
	}
}

// Rows narrower than the ensemble's max split feature must surface as a
// typed error from both Predict and PredictBatch, not a panic.
func TestPredictRejectsNarrowRows(t *testing.T) {
	m := New(DefaultConfig())
	fin, run, finY := split(100, 50, 6, 1.5, 33)
	if err := m.Init(fin, run); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(fin, finY, run); err != nil {
		t.Fatal(err)
	}
	if m.h.CheckWidth(1) == nil {
		t.Skip("ensemble split on too few features to form a narrow row")
	}
	narrow := []float64{1}
	if _, err := m.Predict(narrow); !errors.Is(err, gbt.ErrRowWidth) {
		t.Fatalf("Predict on narrow row: err = %v, want gbt.ErrRowWidth", err)
	}
	if _, err := m.PredictBatch([][]float64{run[0], narrow}, nil); !errors.Is(err, gbt.ErrRowWidth) {
		t.Fatalf("PredictBatch on narrow row: err = %v, want gbt.ErrRowWidth", err)
	}
}

// TestRefitPropensityAllocations: from the second Refit of one model on, the
// propensity half of a refit reuses pooled buffers — it allocates the fitted
// logistic model and nothing per row (the [][]float64 path made two slices
// per row: its log features and their standardised copy) — and the refit as
// a whole allocates no more for four times the rows than the latency fit's
// own row-independent bookkeeping.
func TestRefitPropensityAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	refitAllocs := func(nFin, nRun int) float64 {
		fin, run, finY := split(nFin, nRun, 15, 1, 21)
		m := New(DefaultWarmConfig())
		if err := m.Init(fin, run); err != nil {
			t.Fatal(err)
		}
		if err := m.Refit(fin, finY, run); err != nil { // sizes the buffers
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(5, func() {
			if err := m.fitPropensity(fin, run); err != nil {
				t.Fatal(err)
			}
		}); a > 4 {
			t.Errorf("%d+%d rows: %v allocations per propensity refit, want <= 4", nFin, nRun, a)
		}
		return testing.AllocsPerRun(3, func() {
			if err := m.Refit(fin, finY, run); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := refitAllocs(60, 40), refitAllocs(240, 160)
	t.Logf("allocations per warm Refit: %v at 100 rows, %v at 400", small, large)
	if large > small+60 { // two per row would be +600
		t.Errorf("Refit allocations grow with rows: %v at 100 rows, %v at 400", small, large)
	}
}

// A running row of the wrong width used to panic inside the logistic fit's
// dot product; it is an error now.
func TestRefitRejectsRaggedRunningRows(t *testing.T) {
	fin, run, finY := split(60, 20, 4, 1, 23)
	m := New(DefaultConfig())
	if err := m.Init(fin, run); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]float64{{1, 2, 3}, {1, 2, 3, 4, 5}, {}} {
		ragged := append(append([][]float64{}, run[:7]...), bad)
		if err := m.Refit(fin, finY, ragged); err == nil {
			t.Errorf("running row of width %d among rows of 4: no error", len(bad))
		}
	}
}

// A row wide enough for h_t's trees but narrower than g_t used to index out
// of range inside linmodel.Logistic.Prob (the width check looked at the
// ensemble's largest split feature only); both entry points return a typed
// error now, before either model is evaluated.
func TestPredictRejectsRowsNarrowerThanPropensity(t *testing.T) {
	// Finished rows vary in column 0 only, so that is all the trees can split
	// on; g_t is fitted on all four columns.
	fin, run, finY := split(80, 30, 4, 1, 29)
	for i, row := range fin {
		row[1], row[2], row[3] = 1, 1, 1
		finY[i] = 10 * row[0]
	}
	m := New(DefaultConfig())
	if err := m.Init(fin, run); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(fin, finY, run); err != nil {
		t.Fatal(err)
	}
	if m.h.CheckWidth(0) == nil || m.h.CheckWidth(1) != nil {
		t.Fatal("ensemble does not split on column 0 alone")
	}
	if _, err := m.Predict(run[0]); err != nil {
		t.Fatalf("full-width row: %v", err)
	}
	for _, narrow := range [][]float64{{1, 2}, {1, 2, 3}} {
		if _, err := m.Predict(narrow); !errors.Is(err, linmodel.ErrRowWidth) {
			t.Errorf("Predict on a %d-column row: err = %v, want linmodel.ErrRowWidth", len(narrow), err)
		}
		if _, err := m.PredictBatch([][]float64{run[0], narrow}, nil); !errors.Is(err, linmodel.ErrRowWidth) {
			t.Errorf("PredictBatch with a %d-column row: err = %v, want linmodel.ErrRowWidth", len(narrow), err)
		}
	}
	// Below the trees' own width the ensemble's error still comes first.
	if _, err := m.Predict(nil); !errors.Is(err, gbt.ErrRowWidth) {
		t.Errorf("Predict on an empty row: err = %v, want gbt.ErrRowWidth", err)
	}
}

// TestPredictDoesNotAllocate: a verdict's log-feature row lives on Predict's
// stack at the trace schemas' widths, and rows too wide for it still predict
// the same as the batch path, which never used it.
func TestPredictDoesNotAllocate(t *testing.T) {
	for _, d := range []int{15, 16, 17} {
		fin, run, finY := split(60, 20, d, 1, 31)
		m := New(DefaultConfig())
		if err := m.Init(fin, run); err != nil {
			t.Fatal(err)
		}
		if err := m.Update(fin, finY, run); err != nil {
			t.Fatal(err)
		}
		batch, err := m.PredictBatch(run, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range run {
			if p, err := m.Predict(x); err != nil || p != batch[i] {
				t.Fatalf("%d columns, row %d: Predict = %+v, %v; batch %+v", d, i, p, err, batch[i])
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := m.Predict(run[0]); err != nil {
				t.Fatal(err)
			}
		})
		want := 0.0
		if d > 16 {
			want = 1
		}
		if allocs != want {
			t.Errorf("%d columns: %v allocations per Predict, want %v", d, allocs, want)
		}
	}
}

// latencyModelTrees reports the current size of the latency ensemble (0
// before the first Update), the quantity the warm-refit budget bounds.
func (m *Model) latencyModelTrees() int {
	if m.h == nil {
		return 0
	}
	return m.h.NumTrees()
}
