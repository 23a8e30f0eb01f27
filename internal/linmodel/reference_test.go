package linmodel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/vecmath"
)

// refTrace records which of the training loop's exits and branches one
// refFitLogistic call took, so the differential test can assert its cases
// reach all of them.
type refTrace struct {
	backtracks int  // steps on which the loss rose and the step size halved
	lrBreak    bool // stopped because the step size fell below 1e-6
	tolBreak   bool // stopped because the gradient norm fell below Tol
	maxAbsZ    float64
}

// refFitLogistic is the FitLogistic this package shipped before the flat
// three-pass kernel, moved here verbatim as the oracle the kernel is compared
// against bit for bit: a [][]float64 standardised copy, one vecmath.Dot chain
// per row, sigmoid and logLoss each taking their own Exp. The only edits are
// the rename, the refTrace bookkeeping, and the class weights living in a
// local map now that the LogisticConfig.ClassWeight field is gone.
func refFitLogistic(X [][]float64, y []float64, cfg LogisticConfig) (*Logistic, refTrace, error) {
	var tr refTrace
	n := len(X)
	if n == 0 {
		return nil, tr, fmt.Errorf("linmodel: empty training set")
	}
	if len(y) != n {
		return nil, tr, fmt.Errorf("linmodel: %d labels for %d rows", len(y), n)
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 200
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.5
	}
	mean, std := vecmath.ColumnStats(X)
	Z := vecmath.Standardize(X, mean, std)
	d := len(Z[0])
	w := make([]float64, d)
	b := 0.0
	var classWeight map[int]float64
	if cfg.Balanced {
		n1 := 0.0
		for _, v := range y {
			n1 += v
		}
		n0 := float64(n) - n1
		if n0 > 0 && n1 > 0 {
			classWeight = map[int]float64{
				0: float64(n) / (2 * n0),
				1: float64(n) / (2 * n1),
			}
		}
	}
	sw := make([]float64, n)
	totW := 0.0
	for i := range sw {
		sw[i] = 1
		if classWeight != nil {
			if cw, ok := classWeight[int(y[i])]; ok {
				sw[i] = cw
			}
		}
		totW += sw[i]
	}
	gw := make([]float64, d)
	lr := cfg.LR
	prevLoss := math.Inf(1)
	for it := 0; it < cfg.Iters; it++ {
		for j := range gw {
			gw[j] = 0
		}
		gb := 0.0
		loss := 0.0
		for i := 0; i < n; i++ {
			z := vecmath.Dot(w, Z[i]) + b
			if a := math.Abs(z); a > tr.maxAbsZ {
				tr.maxAbsZ = a
			}
			p := sigmoid(z)
			e := (p - y[i]) * sw[i]
			for j := 0; j < d; j++ {
				gw[j] += e * Z[i][j]
			}
			gb += e
			loss += sw[i] * logLoss(y[i], z)
		}
		for j := 0; j < d; j++ {
			gw[j] = gw[j]/totW + cfg.L2*w[j]
			loss += 0.5 * cfg.L2 * w[j] * w[j]
		}
		gb /= totW
		gnorm := math.Abs(gb)
		for j := 0; j < d; j++ {
			gnorm += math.Abs(gw[j])
		}
		if gnorm < cfg.Tol {
			tr.tolBreak = true
			break
		}
		// Crude backtracking: if loss went up, halve the step and continue.
		if loss > prevLoss {
			tr.backtracks++
			lr *= 0.5
			if lr < 1e-6 {
				tr.lrBreak = true
				break
			}
		}
		prevLoss = loss
		for j := 0; j < d; j++ {
			w[j] -= lr * gw[j]
		}
		b -= lr * gb
	}
	return &Logistic{W: w, B: b, Mean: mean, Std: std}, tr, nil
}

// logLoss returns the logistic loss of label y in {0,1} at logit z,
// computed stably.
func logLoss(y, z float64) float64 {
	// loss = log(1+exp(z)) - y*z
	var lse float64
	if z > 0 {
		lse = z + math.Log1p(math.Exp(-z))
	} else {
		lse = math.Log1p(math.Exp(z))
	}
	return lse - y*z
}

// fitCase is one seeded training problem of the differential and pinned
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
// beyond (so the four-row sweeps and each remainder length run), every width
// from 1 to 15, both class weightings, and the families that steer the
// training loop into its rare branches. The list is a pure function of its
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
	// Separable classes with no ridge penalty and a big step: the weights
	// run off and |z| passes the point where Exp underflows to 0.
	for _, lr := range []float64{40, 400} {
		for _, n := range []int{14, 51} {
			X, y := caseData(rng, n, 3, 0)
			cfg := def
			cfg.L2 = 0
			cfg.LR = lr
			add(fmt.Sprintf("separable/lr%v/%d", lr, n), X, y, cfg)
		}
	}
	// Steps large enough to overshoot: the loss rises and the backtrack
	// halves the step.
	for _, lr := range []float64{8, 20, 50, 120, 300} {
		for _, n := range []int{7, 18, 45, 90} {
			for _, balanced := range []bool{false, true} {
				X, y := caseData(rng, n, 1+n%15, 0.3)
				cfg := def
				cfg.LR = lr
				cfg.Balanced = balanced
				add(fmt.Sprintf("overshoot/lr%v/%d/%v", lr, n, balanced), X, y, cfg)
			}
		}
	}
	// A ridge penalty so large that every step overshoots: the step size
	// halves until it falls under 1e-6 and the loop gives up.
	for _, n := range []int{5, 42} {
		X, y := caseData(rng, n, 6, 0.5)
		cfg := def
		cfg.L2 = 1e7
		cfg.LR = 1
		add(fmt.Sprintf("lrfloor/%d", n), X, y, cfg)
	}
	// Tolerances loose enough to stop before Iters.
	for _, tol := range []float64{0.3, 0.05, 0.005} {
		for _, n := range []int{9, 30, 75} {
			X, y := caseData(rng, n, 8, 1)
			cfg := bal
			cfg.Tol = tol
			add(fmt.Sprintf("tol/%v/%d", tol, n), X, y, cfg)
		}
	}
	// Zero Iters and LR fall back to the defaults.
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

// TestFitLogisticMatchesReference compares the kernel with the loop it
// replaced, bit for bit, and checks the case list really visits the branches
// it was built to visit.
func TestFitLogisticMatchesReference(t *testing.T) {
	cases := fitCases()
	if len(cases) < 300 {
		t.Fatalf("%d cases, want at least 300", len(cases))
	}
	var backtracked, lrBreaks, tolBreaks, underflowed int
	var scratch LogisticScratch
	for _, c := range cases {
		want, tr, err := refFitLogistic(c.X, c.y, c.cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if tr.backtracks > 0 {
			backtracked++
		}
		if tr.lrBreak {
			lrBreaks++
		}
		if tr.tolBreak {
			tolBreaks++
		}
		if tr.maxAbsZ > 746 { // Exp(-746) == 0
			underflowed++
		}
		got, err := FitLogistic(c.X, c.y, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// The same fit through the flat entry point with one scratch reused
		// across every case, shapes growing and shrinking.
		reused, err := FitLogisticFlat(flatten(c.X), len(c.X[0]), c.y, c.cfg, &scratch)
		if err != nil {
			t.Fatalf("%s: flat: %v", c.name, err)
		}
		for _, m := range []*Logistic{got, reused} {
			if !sameBits(m.W, want.W) || math.Float64bits(m.B) != math.Float64bits(want.B) ||
				!sameBits(m.Mean, want.Mean) || !sameBits(m.Std, want.Std) {
				t.Errorf("%s: fit differs from the reference\n got W=%v B=%v\nwant W=%v B=%v",
					c.name, m.W, m.B, want.W, want.B)
			}
		}
		for _, v := range append(append([]float64{want.B}, want.W...), want.Std...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: reference fit is not finite: W=%v B=%v", c.name, want.W, want.B)
				break
			}
		}
	}
	t.Logf("%d cases: backtrack fired in %d, lr floor reached in %d, Tol stopped %d, Exp underflowed in %d",
		len(cases), backtracked, lrBreaks, tolBreaks, underflowed)
	if backtracked < 20 {
		t.Errorf("backtrack fired in %d cases, want at least 20", backtracked)
	}
	if lrBreaks < 1 {
		t.Errorf("no case reached the lr < 1e-6 break")
	}
	if tolBreaks < 1 {
		t.Errorf("no case stopped at Tol")
	}
	if underflowed < 1 {
		t.Errorf("no case drove |z| past Exp underflow")
	}
}

// BenchmarkFitLogistic times one propensity-shaped fit (balanced, default
// config: all 200 steps run) and reports the cost per row per gradient step,
// the unit of README "Performance"'s budget table. The reference/ cases run
// the replaced loop on the same data, so kernel and parent read side by side:
//
//	go test ./internal/linmodel -run '^$' -bench FitLogistic
func BenchmarkFitLogistic(b *testing.B) {
	cfg := DefaultLogisticConfig()
	cfg.Balanced = true
	for _, n := range []int{110, 320} {
		const d = 15
		X, y := caseData(stats.NewRNG(uint64(n)), n, d, 1)
		flat := flatten(X)
		rowIters := float64(n * cfg.Iters)
		b.Run(fmt.Sprintf("%dx%d", n, d), func(b *testing.B) {
			var scratch LogisticScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FitLogisticFlat(flat, d, y, cfg, &scratch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rowIters, "ns/row-iter")
		})
		b.Run(fmt.Sprintf("reference/%dx%d", n, d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := refFitLogistic(X, y, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rowIters, "ns/row-iter")
		})
	}
}
