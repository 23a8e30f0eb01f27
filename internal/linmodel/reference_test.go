package linmodel

import (
	"fmt"
	"math"
	"strings"
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

// withEachKernel calls f once per FitLogisticFlat kernel this machine runs —
// the Go loops, then the AVX2 kernel where the CPU has it — with that kernel
// selected, and restores the selection.
func withEachKernel(f func(kernel string)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	useAVX2 = false
	f("go")
	if haveAVX2 {
		useAVX2 = true
		f("avx2")
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
		withEachKernel(func(kernel string) {
			got, err := FitLogistic(c.X, c.y, c.cfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", c.name, kernel, err)
			}
			// The same fit through the flat entry point with one scratch
			// reused across every case and both kernels, shapes growing and
			// shrinking.
			reused, err := FitLogisticFlat(flatten(c.X), len(c.X[0]), c.y, c.cfg, &scratch)
			if err != nil {
				t.Fatalf("%s (%s): flat: %v", c.name, kernel, err)
			}
			for _, m := range []*Logistic{got, reused} {
				if !sameBits(m.W, want.W) || math.Float64bits(m.B) != math.Float64bits(want.B) ||
					!sameBits(m.Mean, want.Mean) || !sameBits(m.Std, want.Std) {
					t.Errorf("%s (%s): fit differs from the reference\n got W=%v B=%v\nwant W=%v B=%v",
						c.name, kernel, m.W, m.B, want.W, want.B)
				}
			}
		})
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

// plateauCases is the case list of the loss-skipping certificate, apart from
// fitCases because pin_test.go hashes that list as it stands. Tol 0 and
// thousands of steps run each fit until the loss stops falling in floating
// point: from there a step's gain is smaller than the rounding of the two
// losses, the certificate cannot hold, and whether the computed loss rose is
// decided by that rounding — which the kernel has to reproduce, not bound.
// Row counts reach 20 000 because the bound grows with n; step counts shrink
// as rows get dearer, and the 20 000-row fits keep only the settings that
// reach the plateau (or the lr floor) inside them, so the family stays within
// a few seconds.
func plateauCases() []fitCase {
	var cases []fitCase
	rng := stats.NewRNG(20261003)
	add := func(n, d int, l2, lr float64) {
		X, y := caseData(rng, n, d, 0.5)
		cfg := LogisticConfig{L2: l2, LR: lr, Tol: 0, Balanced: len(cases)%2 == 1}
		// About 15 ms a case at 40+4d ns per row per step, reference and
		// kernel together.
		cfg.Iters = min(max(15_000_000/(n*(40+4*d)), 80), 4000)
		cases = append(cases, fitCase{fmt.Sprintf("plateau/%dx%d/l2=%v/lr=%v", n, d, l2, lr), X, y, cfg})
	}
	for _, d := range []int{1, 3, 15} {
		for _, n := range []int{5, 17, 110, 1000} {
			for _, l2 := range []float64{0, 1e-3, 1, 10} {
				for _, lr := range []float64{0.5, 1, 3} {
					add(n, d, l2, lr)
				}
			}
		}
		add(20000, d, 1e-3, 0.5)
		add(20000, d, 1, 0.8)
		add(20000, d, 10, 0.1)
		add(20000, d, 10, 3)
	}
	return cases
}

// nonFiniteCases drive NaN and infinities through the training loop: cells
// the wire format admits, a step size that overflows the weights, a ridge
// penalty that makes 0*Inf of the first gradient. From the first non-finite
// step on, the certificate's test is false and every loss is evaluated.
// (These inputs fit to NaN, at the parent as here; the point is that they do
// so by the same route, bit for bit.)
func nonFiniteCases() []fitCase {
	var cases []fitCase
	rng := stats.NewRNG(20261004)
	def := DefaultLogisticConfig()
	for _, cell := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, n := range []int{6, 41} {
			X, y := caseData(rng, n, 4, 0.5)
			X[n/2][1] = cell
			cfg := def
			cfg.Balanced = n > 10
			cases = append(cases, fitCase{fmt.Sprintf("nonfinite/cell=%v/%d", cell, n), X, y, cfg})
		}
	}
	for _, lr := range []float64{1e300, math.MaxFloat64, math.Inf(1)} {
		X, y := caseData(rng, 23, 5, 0.5)
		cfg := def
		cfg.LR = lr
		cases = append(cases, fitCase{fmt.Sprintf("nonfinite/lr=%v", lr), X, y, cfg})
	}
	X, y := caseData(rng, 12, 3, 0.5)
	cfg := def
	cfg.L2 = math.Inf(1)
	cases = append(cases, fitCase{"nonfinite/l2=+Inf", X, y, cfg})
	return cases
}

// TestFitLogisticCertificate holds the loss-skipping loop to the reference
// where skipping is hardest — plateaus, where the comparison is decided by
// rounding, and non-finite arithmetic, where no bound holds — and checks, from
// the step counts the scratch reports, that both arms and the hand-over
// between them were really taken.
func TestFitLogisticCertificate(t *testing.T) {
	var scratch LogisticScratch
	// run fits c the reference way and with every kernel, compares the bits,
	// and reports the reference's trace and whether its fit is finite. The
	// kernels' step counts, left in scratch, must agree: their mag sums are
	// the same bits, so the certificate decides every step alike.
	run := func(c fitCase) (refTrace, bool) {
		t.Helper()
		want, tr, err := refFitLogistic(c.X, c.y, c.cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		counts := [3]int{-1}
		withEachKernel(func(kernel string) {
			got, err := FitLogisticFlat(flatten(c.X), len(c.X[0]), c.y, c.cfg, &scratch)
			if err != nil {
				t.Fatalf("%s (%s): %v", c.name, kernel, err)
			}
			if !sameBits(got.W, want.W) || math.Float64bits(got.B) != math.Float64bits(want.B) ||
				!sameBits(got.Mean, want.Mean) || !sameBits(got.Std, want.Std) {
				t.Errorf("%s (%s): fit differs from the reference\n got W=%v B=%v\nwant W=%v B=%v", c.name, kernel, got.W, got.B, want.W, want.B)
			}
			got3 := [3]int{scratch.certified, scratch.computed, scratch.materialised}
			if counts[0] >= 0 && got3 != counts {
				t.Errorf("%s (%s): certified/computed/materialised %v, the Go loops %v", c.name, kernel, got3, counts)
			}
			counts = got3
		})
		// A backtrack is a decision only an evaluated loss can take.
		if scratch.computed < tr.backtracks {
			t.Errorf("%s: %d losses evaluated, the reference backtracked %d times", c.name, scratch.computed, tr.backtracks)
		}
		if scratch.materialised > scratch.computed {
			t.Errorf("%s: %d previous losses materialised on %d computing steps", c.name, scratch.materialised, scratch.computed)
		}
		finite := !math.IsNaN(want.B) && !math.IsInf(want.B, 0)
		for _, v := range want.W {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		return tr, finite
	}

	var backtracks, lrBreaks, noRise, materialised, certified, computed int
	for _, c := range plateauCases() {
		tr, finite := run(c)
		if !finite {
			t.Errorf("%s: reference fit is not finite", c.name)
		}
		backtracks += tr.backtracks
		if tr.lrBreak {
			lrBreaks++
		}
		noRise += scratch.computed - tr.backtracks
		materialised += scratch.materialised
		certified += scratch.certified
		computed += scratch.computed
	}
	t.Logf("plateau: %d reference backtracks (%d fits ended at the lr floor), %d certified steps, %d computing steps of which %d saw no rise and %d materialised the previous loss",
		backtracks, lrBreaks, certified, computed, noRise, materialised)
	if backtracks < 1000 {
		t.Errorf("%d reference backtracks over the plateau family, want at least 1000", backtracks)
	}
	if noRise < 1 {
		t.Errorf("no step on which the certificate failed and the loss did not rise")
	}
	if materialised < 1 {
		t.Errorf("no step that had to materialise a skipped previous loss")
	}
	if certified < 1000 {
		t.Errorf("%d certified steps over the plateau family, want at least 1000", certified)
	}

	for _, c := range nonFiniteCases() {
		if _, finite := run(c); finite {
			t.Errorf("%s: reference fit is finite", c.name)
		}
		// Each of these leaves the reals on its second step at the latest,
		// and nothing certifies a step after that.
		if scratch.certified != 1 || scratch.computed != c.cfg.Iters-1 {
			t.Errorf("%s: %d steps certified and %d computed, want 1 and %d", c.name, scratch.certified, scratch.computed, c.cfg.Iters-1)
		}
	}

	// What the certificate is for: on the propensity fit's own shapes it
	// settles all but a handful of steps.
	shapes := 0
	for _, c := range fitCases() {
		if !strings.Contains(c.name, "/propensity/") {
			continue
		}
		shapes++
		run(c)
		if steps := scratch.certified + scratch.computed; scratch.certified*100 < steps*99 {
			t.Errorf("%s: %d of %d steps certified, want at least 99%%", c.name, scratch.certified, steps)
		}
	}
	if shapes != 3 {
		t.Errorf("%d propensity shapes in fitCases, want 3", shapes)
	}
}

// TestCertifiesOnlyFiniteNumbers: the margin's magnitude dominates every term
// of c (|c| <= 3*(mag+magPrev)), so no training input reaches an infinite c
// beside a finite margin short of the last binade; the rule is pinned here.
func TestCertifiesOnlyFiniteNumbers(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		c, margin float64
		want      bool
	}{
		{2, 1, true}, {math.MaxFloat64, 1, true},
		{1, 1, false}, {0, 0, false}, {-1, 0, false}, {-inf, 0, false},
		{inf, 1, false}, {inf, inf, false}, {nan, 0, false},
		{1, nan, false}, {1, inf, false}, {inf, nan, false},
	} {
		if got := certifies(c.c, c.margin); got != c.want {
			t.Errorf("certifies(%v, %v) = %v, want %v", c.c, c.margin, got, c.want)
		}
	}
}

// BenchmarkFitLogistic times one propensity-shaped fit (balanced, default
// config: all 200 steps run) and reports the cost per row per gradient step,
// the unit of README "Performance"'s budget table, beside how many times the
// fit evaluated the loss (the reference does on every step), once per kernel
// the machine runs (go/, avx2/). The reference/ cases run the replaced loop on
// the same data, so the kernels and the parent read side by side:
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
		withEachKernel(func(kernel string) {
			b.Run(fmt.Sprintf("%s/%dx%d", kernel, n, d), func(b *testing.B) {
				var scratch LogisticScratch
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := FitLogisticFlat(flat, d, y, cfg, &scratch); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rowIters, "ns/row-iter")
				b.ReportMetric(float64(scratch.computed+scratch.materialised), "loss-evals/fit")
			})
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
