package linmodel

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/vecmath"
)

// fitCase is one seeded training problem of the convergence and pinned
// tests.
type fitCase struct {
	name string
	X    [][]float64
	y    []float64
	cfg  LogisticConfig
}

// caseData draws an n x d matrix shaped like the propensity fit's input
// (log1p of heavy-tailed usage columns next to roughly normal ones) and
// labels from a noisy linear rule over it; noise 0 makes the classes
// linearly separable.
func caseData(rng *stats.RNG, n, d int, noise float64) ([][]float64, []float64) {
	beta := make([]float64, d)
	for j := range beta {
		beta[j] = rng.Normal(0, 1)
	}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		s := 0.0
		for j := range row {
			if j%3 == 0 {
				row[j] = math.Log1p(rng.LogNormal(0, 1.5))
			} else {
				row[j] = rng.Normal(float64(j), 1+0.25*float64(j))
			}
			s += beta[j] * (row[j] - float64(j))
		}
		X[i] = row
		if s+rng.Normal(0, noise) > 0 {
			y[i] = 1
		}
	}
	return X, y
}

// fitCases builds the shared case list: every row count from 1 to 9 and
// beyond, every width from 1 to 15, both class weightings, and the families
// that make Newton's method work for its answer — one class only (the
// intercept runs off), a constant column, no ridge penalty on separable
// classes, penalties from 0 to 1e7. The list is a pure function of its
// seeds; pin_test.go hashes the fits of exactly these cases.
func fitCases() []fitCase {
	var cases []fitCase
	add := func(name string, X [][]float64, y []float64, cfg LogisticConfig) {
		cases = append(cases, fitCase{fmt.Sprintf("%03d/%s", len(cases), name), X, y, cfg})
	}
	rng := stats.NewRNG(20260928)
	def := DefaultLogisticConfig()
	bal := def
	bal.Balanced = true

	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 17, 31, 64, 110} {
		for d := 1; d <= 15; d++ {
			X, y := caseData(rng, n, d, 0.5)
			cfg := def
			if (n+d)%2 == 0 {
				cfg = bal
			}
			add(fmt.Sprintf("shape/%dx%d", n, d), X, y, cfg)
		}
	}
	// The propensity fit's own shapes, balanced as nurd configures it.
	for _, n := range []int{120, 219, 320} {
		X, y := caseData(rng, n, 15, 1)
		add(fmt.Sprintf("propensity/%dx15", n), X, y, bal)
	}
	// One class only: Balanced must leave every weight at 1.
	for _, label := range []float64{0, 1} {
		for _, n := range []int{1, 6, 23} {
			X, y := caseData(rng, n, 4, 0.5)
			for i := range y {
				y[i] = label
			}
			add(fmt.Sprintf("oneclass/%v/%d", label, n), X, y, bal)
		}
	}
	// A constant column (Std forced to 1, standardised value exactly 0),
	// first, last and alone.
	for _, c := range []struct{ d, col int }{{1, 0}, {5, 0}, {5, 4}, {15, 7}} {
		X, y := caseData(rng, 37, c.d, 0.5)
		for i := range X {
			X[i][c.col] = 2.5
		}
		add(fmt.Sprintf("constcol/%d/%d", c.d, c.col), X, y, bal)
	}
	// Separable classes with no ridge penalty: no minimiser exists, the
	// weights run off, and the fit stops once the gradient is within
	// gradTol of zero.
	for _, rep := range []int{0, 1} {
		for _, n := range []int{14, 51} {
			X, y := caseData(rng, n, 3, 0)
			cfg := def
			cfg.L2 = 0
			add(fmt.Sprintf("separable/%d/%d", rep, n), X, y, cfg)
		}
	}
	// Penalties across seven decades, with and without class weights.
	for _, l2 := range []float64{0, 1e-4, 3e-2, 1, 100} {
		for _, n := range []int{7, 18, 45, 90} {
			for _, balanced := range []bool{false, true} {
				X, y := caseData(rng, n, 1+n%15, 0.3)
				cfg := def
				cfg.L2 = l2
				cfg.Balanced = balanced
				add(fmt.Sprintf("penalty/%v/%d/%v", l2, n, balanced), X, y, cfg)
			}
		}
	}
	// A ridge penalty so large that the weights stay near zero.
	for _, n := range []int{5, 42} {
		X, y := caseData(rng, n, 6, 0.5)
		cfg := def
		cfg.L2 = 1e7
		add(fmt.Sprintf("bigridge/%d", n), X, y, cfg)
	}
	// The zero config: no penalty, no class weights.
	X, y := caseData(rng, 21, 5, 0.5)
	add("zeroconfig", X, y, LogisticConfig{})
	return cases
}

// flatten copies X into the row-major layout FitLogisticFlat takes.
func flatten(X [][]float64) []float64 {
	flat := make([]float64, 0, len(X)*len(X[0]))
	for _, row := range X {
		flat = append(flat, row...)
	}
	return flat
}

// sampleWeights returns the per-row weights FitLogisticFlat documents and
// their sum.
func sampleWeights(y []float64, balanced bool) ([]float64, float64) {
	n1 := 0.0
	for _, v := range y {
		n1 += v
	}
	n := float64(len(y))
	w0, w1 := 1.0, 1.0
	if n0 := n - n1; balanced && n0 > 0 && n1 > 0 {
		w0, w1 = n/(2*n0), n/(2*n1)
	}
	sw := make([]float64, len(y))
	tot := 0.0
	for i, v := range y {
		sw[i] = w0
		if v == 1 {
			sw[i] = w1
		}
		tot += sw[i]
	}
	return sw, tot
}

// objectiveGrad returns the penalised gradient of FitLogisticFlat's
// objective at (w, b) over the standardized rows Z, the intercept's
// component last.
func objectiveGrad(Z [][]float64, y, sw []float64, totW, l2 float64, w []float64, b float64) []float64 {
	d := len(w)
	g := make([]float64, d+1)
	for i, z := range Z {
		r := sw[i] * (sigmoid(vecmath.Dot(w, z)+b) - y[i])
		for j := range w {
			g[j] += r * z[j]
		}
		g[d] += r
	}
	for j := range g {
		g[j] /= totW
		if j < d {
			g[j] += l2 * w[j]
		}
	}
	return g
}

// kkt is the infinity norm of the penalised gradient at a fitted model, the
// standardization recomputed from the raw rows.
func kkt(c fitCase, m *Logistic) float64 {
	mean, std := vecmath.ColumnStats(c.X)
	Z := vecmath.Standardize(c.X, mean, std)
	sw, totW := sampleWeights(c.y, c.cfg.Balanced)
	worst := 0.0
	for _, v := range objectiveGrad(Z, c.y, sw, totW, c.cfg.L2, m.W, m.B) {
		if a := math.Abs(v); !(a <= worst) {
			worst = a
		}
	}
	return worst
}

// TestFitLogisticConverges: every case of fitCases comes back at a
// stationary point of the objective — the infinity norm of the penalised
// gradient is at most 1e-9 — whether fitted alone or through one scratch
// reused across every case, shapes growing and shrinking; and the two fits
// are the same bits.
func TestFitLogisticConverges(t *testing.T) {
	cases := fitCases()
	if len(cases) < 290 {
		t.Fatalf("%d cases, want at least 290", len(cases))
	}
	var scratch LogisticScratch
	most := 0
	for _, c := range cases {
		m, err := FitLogistic(c.X, c.y, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r := kkt(c, m); !(r <= 1e-9) {
			t.Errorf("%s: penalised gradient %v at the fit, want <= 1e-9", c.name, r)
		}
		reused, err := FitLogisticFlat(flatten(c.X), len(c.X[0]), c.y, c.cfg, &scratch)
		if err != nil {
			t.Fatalf("%s: flat: %v", c.name, err)
		}
		most = max(most, scratch.passes)
		if !sameBits(reused.W, m.W) || math.Float64bits(reused.B) != math.Float64bits(m.B) ||
			!sameBits(reused.Mean, m.Mean) || !sameBits(reused.Std, m.Std) {
			t.Errorf("%s: the reused scratch fits W=%v B=%v, a fresh one W=%v B=%v", c.name, reused.W, reused.B, m.W, m.B)
		}
	}
	t.Logf("%d cases, at most %d passes a fit", len(cases), most)
}

// descend minimises FitLogisticFlat's objective by plain full-batch
// gradient descent from zero with the fixed step 1/L, L the trace bound on
// the objective's curvature, until the penalised gradient is under 1e-12
// (reported) or the step budget runs out.
func descend(c fitCase, steps int) (w []float64, b float64, ok bool) {
	mean, std := vecmath.ColumnStats(c.X)
	Z := vecmath.Standardize(c.X, mean, std)
	sw, totW := sampleWeights(c.y, c.cfg.Balanced)
	d := len(Z[0])
	curv := 0.0
	for i, z := range Z {
		curv += sw[i] * (1 + vecmath.Dot(z, z))
	}
	lr := 1 / (0.25*curv/totW + c.cfg.L2)
	w = make([]float64, d)
	for it := 0; it < steps; it++ {
		g := objectiveGrad(Z, c.y, sw, totW, c.cfg.L2, w, b)
		worst := 0.0
		for _, v := range g {
			worst = max(worst, math.Abs(v))
		}
		if worst < 1e-12 {
			return w, b, true
		}
		for j := range w {
			w[j] -= lr * g[j]
		}
		b -= lr * g[d]
	}
	return w, b, false
}

// TestFitLogisticMatchesDescent: on the cases with a unique minimiser that
// plain descent reaches in reasonable time (two classes, at least 31 rows, a
// penalty from 1e-3 to 100: a larger one shrinks the fixed step until the
// unpenalised intercept barely moves), run it to a gradient under 1e-12 and
// compare: the fitted weights and intercept agree to 1e-6.
func TestFitLogisticMatchesDescent(t *testing.T) {
	compared := 0
	for _, c := range fitCases() {
		n1 := 0.0
		for _, v := range c.y {
			n1 += v
		}
		if len(c.y) < 31 || n1 == 0 || n1 == float64(len(c.y)) || !(c.cfg.L2 >= 1e-3 && c.cfg.L2 <= 100) ||
			strings.Contains(c.name, "/shape/") && len(c.X[0])%4 != 0 {
			continue
		}
		m, err := FitLogistic(c.X, c.y, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		w, b, ok := descend(c, 200_000)
		if !ok {
			t.Errorf("%s: descent did not converge", c.name)
			continue
		}
		compared++
		diff := math.Abs(m.B - b)
		for j := range w {
			diff = max(diff, math.Abs(m.W[j]-w[j]))
		}
		if diff > 1e-6 {
			t.Errorf("%s: Newton and descent differ by %v\nNewton  W=%v B=%v\ndescent W=%v B=%v", c.name, diff, m.W, m.B, w, b)
		}
	}
	if compared < 15 {
		t.Errorf("compared %d cases, want at least 15", compared)
	}
}

// TestFitLogisticDampsOvershoot: unpenalised fits of small, nearly
// separable sets with a few far outliers, where a full Newton step from zero
// can raise the loss and, left undamped, runs the weights off to 1e13 and
// beyond without reaching a stationary point. Every fit must still end at a
// penalised gradient of at most 1e-9, and some of them must have halved a
// step (a pass that was not an accepted Newton step), or the damping is
// untested.
func TestFitLogisticDampsOvershoot(t *testing.T) {
	var scratch LogisticScratch
	damped := 0
	for seed := uint64(1); seed <= 2000; seed++ {
		rng := stats.NewRNG(seed)
		n, d := 3+int(rng.Float64()*30), 1+int(rng.Float64()*3)
		X, y := make([][]float64, n), make([]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for j := range X[i] {
				X[i][j] = rng.Normal(0, 1)
				if rng.Float64() < 0.1 {
					X[i][j] *= 30
				}
			}
			if X[i][0]+rng.Normal(0, 0.3) > 0 {
				y[i] = 1
			}
		}
		c := fitCase{fmt.Sprintf("outliers/%d", seed), X, y, LogisticConfig{}}
		m, err := FitLogisticFlat(flatten(X), d, y, c.cfg, &scratch)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r := kkt(c, m); !(r <= 1e-9) {
			t.Errorf("%s: penalised gradient %v at W=%v B=%v", c.name, r, m.W, m.B)
		}
		if scratch.passes > scratch.iters+1 {
			damped++
		}
	}
	if damped == 0 {
		t.Error("no fit halved a step")
	}
	t.Logf("%d of 2000 fits halved a step", damped)
}

// TestFitLogisticDegenerateInputs: inputs with no unique minimiser, or none
// at all, come back inside the pass cap without an error or a panic. A NaN
// cell is admitted: it turns its column's Mean and Std, and every weight and
// the intercept, into NaN, so Prob answers NaN. Whether to reject NaN
// instead is the ingest validation's decision, not the fit's.
func TestFitLogisticDegenerateInputs(t *testing.T) {
	rng := stats.NewRNG(20261017)
	var scratch LogisticScratch
	fit := func(name string, X [][]float64, y []float64, cfg LogisticConfig) *Logistic {
		t.Helper()
		m, err := FitLogisticFlat(flatten(X), len(X[0]), y, cfg, &scratch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if scratch.passes > maxPasses {
			t.Errorf("%s: %d passes, cap %d", name, scratch.passes, maxPasses)
		}
		return m
	}
	finite := func(name string, m *Logistic) {
		t.Helper()
		for _, v := range append(append([]float64{m.B}, m.W...), m.Std...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: fit is not finite: W=%v B=%v", name, m.W, m.B)
				return
			}
		}
	}
	noPenalty := LogisticConfig{}
	balanced := LogisticConfig{L2: 1e-3, Balanced: true}

	for _, label := range []float64{0, 1} {
		for _, cfg := range []LogisticConfig{noPenalty, balanced} {
			X, y := caseData(rng, 40, 5, 0.5)
			for i := range y {
				y[i] = label
			}
			name := fmt.Sprintf("one class %v, %+v", label, cfg)
			m := fit(name, X, y, cfg)
			finite(name, m)
			for _, x := range X {
				if p := m.Prob(x); math.Abs(p-label) > 1e-8 {
					t.Errorf("%s: Prob %v, want within 1e-8 of %v", name, p, label)
					break
				}
			}
		}
	}

	for _, cfg := range []LogisticConfig{noPenalty, balanced} {
		X, y := separable2D(300, 11)
		name := fmt.Sprintf("separable, %+v", cfg)
		m := fit(name, X, y, cfg)
		finite(name, m)
		for i, x := range X {
			if (m.Prob(x) >= 0.5) != (y[i] == 1) {
				t.Errorf("%s: row %d misclassified", name, i)
				break
			}
		}
	}

	for _, cfg := range []LogisticConfig{noPenalty, balanced} {
		X, y := caseData(rng, 60, 6, 0.5)
		for i := range X {
			X[i][2] = -1.25
		}
		name := fmt.Sprintf("constant column, %+v", cfg)
		m := fit(name, X, y, cfg)
		finite(name, m)
		if m.W[2] != 0 {
			t.Errorf("%s: weight %v on the constant column, want 0", name, m.W[2])
		}
		if r := kkt(fitCase{name, X, y, cfg}, m); !(r <= 1e-9) {
			t.Errorf("%s: penalised gradient %v", name, r)
		}
	}

	for _, cfg := range []LogisticConfig{noPenalty, balanced} {
		X, y := caseData(rng, 60, 6, 0.5)
		for i := range X {
			X[i] = append(X[i], X[i][1])
		}
		name := fmt.Sprintf("duplicated column, %+v", cfg)
		m := fit(name, X, y, cfg)
		finite(name, m)
		if r := kkt(fitCase{name, X, y, cfg}, m); !(r <= 1e-9) {
			t.Errorf("%s: penalised gradient %v", name, r)
		}
		// The duplicate's two weights only ever act as their sum; a
		// penalty splits it evenly.
		if cfg.L2 > 0 && math.Abs(m.W[1]-m.W[6]) > 1e-9 {
			t.Errorf("%s: weights %v and %v on identical columns", name, m.W[1], m.W[6])
		}
	}

	for _, cfg := range []LogisticConfig{noPenalty, balanced} {
		X, y := caseData(rng, 30, 4, 0.5)
		X[13][2] = math.NaN()
		name := fmt.Sprintf("NaN cell, %+v", cfg)
		m := fit(name, X, y, cfg)
		for j := range m.Mean {
			if nan := math.IsNaN(m.Mean[j]) || math.IsNaN(m.Std[j]); nan != (j == 2) {
				t.Errorf("%s: column %d Mean %v Std %v", name, j, m.Mean[j], m.Std[j])
			}
		}
		for _, v := range append([]float64{m.B}, m.W...) {
			if !math.IsNaN(v) {
				t.Errorf("%s: W=%v B=%v, want NaN throughout", name, m.W, m.B)
				break
			}
		}
		if p := m.Prob(X[0]); !math.IsNaN(p) {
			t.Errorf("%s: Prob %v, want NaN", name, p)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// BenchmarkFitLogistic times one propensity-shaped fit (balanced, the
// penalty nurd's g_t uses) and reports nanoseconds and Newton iterations
// per fit:
//
//	go test ./internal/linmodel -run '^$' -bench FitLogistic -cpu 1
func BenchmarkFitLogistic(b *testing.B) {
	cfg := LogisticConfig{L2: 3e-2, Balanced: true}
	for _, n := range []int{110, 320} {
		const d = 15
		X, y := caseData(stats.NewRNG(uint64(n)), n, d, 1)
		flat := flatten(X)
		b.Run(fmt.Sprintf("%dx%d", n, d), func(b *testing.B) {
			var scratch LogisticScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FitLogisticFlat(flat, d, y, cfg, &scratch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/fit")
			b.ReportMetric(float64(scratch.iters), "iters/fit")
		})
	}
}
