package outlier

import (
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
)

// plantedData returns n inliers around the origin plus m SCATTERED far
// outliers (each in its own random direction, so density- and
// neighborhood-based detectors can isolate them individually), with the
// outliers at the END of the returned matrix.
func plantedData(n, m, d int, seed uint64) [][]float64 {
	rng := stats.NewRNG(seed)
	X := make([][]float64, 0, n+m)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Normal(0, 1)
		}
		X = append(X, row)
	}
	for i := 0; i < m; i++ {
		row := make([]float64, d)
		norm := 0.0
		for j := range row {
			row[j] = rng.Normal(0, 1)
			norm += row[j] * row[j]
		}
		norm = 1 / (1e-9 + normSqrt(norm))
		r := rng.Uniform(8, 12)
		for j := range row {
			row[j] *= norm * r
		}
		X = append(X, row)
	}
	return X
}

func normSqrt(x float64) float64 {
	// tiny helper to avoid importing math just for Sqrt in two spots
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 30; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

// checkRanksOutliers fits the detector on planted data and verifies that
// the planted outliers receive systematically higher scores: at least
// frac of them must rank inside the top (2*m) scores.
func checkRanksOutliers(t *testing.T, det Detector, frac float64) {
	t.Helper()
	const n, m, d = 150, 10, 4
	X := plantedData(n, m, d, 42)
	if err := det.Fit(X); err != nil {
		t.Fatalf("%s: fit: %v", det.Name(), err)
	}
	scores := det.Scores(X)
	if len(scores) != n+m {
		t.Fatalf("%s: %d scores for %d rows", det.Name(), len(scores), n+m)
	}
	type pair struct {
		idx int
		s   float64
	}
	ps := make([]pair, len(scores))
	for i, s := range scores {
		ps[i] = pair{i, s}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].s > ps[b].s })
	top := map[int]bool{}
	for i := 0; i < 2*m && i < len(ps); i++ {
		top[ps[i].idx] = true
	}
	hits := 0
	for i := n; i < n+m; i++ {
		if top[i] {
			hits++
		}
	}
	if got := float64(hits) / float64(m); got < frac {
		t.Fatalf("%s: only %.0f%% of planted outliers in top ranks (want >= %.0f%%)",
			det.Name(), got*100, frac*100)
	}
}

func TestKNNDetector(t *testing.T)  { checkRanksOutliers(t, NewKNN(5), 0.9) }
func TestLOFDetector(t *testing.T)  { checkRanksOutliers(t, NewLOF(10), 0.9) }
func TestCOFDetector(t *testing.T)  { checkRanksOutliers(t, NewCOF(10), 0.9) }
func TestHBOSDetector(t *testing.T) { checkRanksOutliers(t, NewHBOS(10), 0.8) }
func TestIForestDetector(t *testing.T) {
	checkRanksOutliers(t, NewIForest(100, 128, 7), 0.9)
}
func TestMCDDetector(t *testing.T) { checkRanksOutliers(t, NewMCD(0.75, 7), 0.9) }
func TestPCADetector(t *testing.T) {
	// PCA flags deviation from the data's principal subspace: inliers live
	// on a 2D plane inside 4D; outliers leave the plane.
	rng := stats.NewRNG(21)
	var X [][]float64
	for i := 0; i < 150; i++ {
		a, b := rng.Normal(0, 2), rng.Normal(0, 2)
		X = append(X, []float64{a, b, a + rng.Normal(0, 0.05), b - a + rng.Normal(0, 0.05)})
	}
	for i := 0; i < 10; i++ {
		a, b := rng.Normal(0, 2), rng.Normal(0, 2)
		X = append(X, []float64{a, b, a + rng.Uniform(2, 4), b - a - rng.Uniform(2, 4)})
	}
	det := NewPCA(0.9)
	if err := det.Fit(X); err != nil {
		t.Fatal(err)
	}
	scores := det.Scores(X)
	thr := Threshold(scores, 0.1)
	hits := 0
	for i := 150; i < 160; i++ {
		if scores[i] > thr {
			hits++
		}
	}
	if hits < 7 {
		t.Fatalf("PCA caught %d/10 off-subspace outliers", hits)
	}
}

func TestOCSVMDetector(t *testing.T) {
	// Linear one-class SVM separates a one-sided shift.
	rng := stats.NewRNG(23)
	var X [][]float64
	for i := 0; i < 150; i++ {
		X = append(X, []float64{rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1)})
	}
	for i := 0; i < 10; i++ {
		X = append(X, []float64{rng.Normal(6, 0.5) + float64(i), rng.Normal(6, 0.5), rng.Normal(6, 0.5)})
	}
	det := NewOCSVM(0.1, 30, 7)
	if err := det.Fit(X); err != nil {
		t.Fatal(err)
	}
	scores := det.Scores(X)
	inMean, outMean := 0.0, 0.0
	for i := 0; i < 150; i++ {
		inMean += scores[i]
	}
	for i := 150; i < 160; i++ {
		outMean += scores[i]
	}
	if outMean/10 <= inMean/150 {
		t.Fatalf("OCSVM outlier mean %v <= inlier mean %v", outMean/10, inMean/150)
	}
}
func TestCBLOFDetector(t *testing.T) { checkRanksOutliers(t, NewCBLOF(8, 0.9, 5, 7), 0.8) }
func TestSOSDetector(t *testing.T)   { checkRanksOutliers(t, NewSOS(4.5), 0.8) }
func TestLSCPDetector(t *testing.T) {
	checkRanksOutliers(t, NewLSCP([]int{5, 10, 15}, 10, 7), 0.8)
}
func TestSODDetector(t *testing.T)   { checkRanksOutliers(t, NewSOD(10, 8, 0.8), 0.8) }
func TestABODDetector(t *testing.T)  { checkRanksOutliers(t, NewABOD(10), 0.7) }
func TestXGBODDetector(t *testing.T) { checkRanksOutliers(t, NewXGBOD(7), 0.7) }

func TestAllReturnsFourteen(t *testing.T) {
	ds := All(1)
	if len(ds) != 14 {
		t.Fatalf("All returned %d detectors, want 14", len(ds))
	}
	seen := map[string]bool{}
	for _, d := range ds {
		if seen[d.Name()] {
			t.Fatalf("duplicate detector %s", d.Name())
		}
		seen[d.Name()] = true
	}
}

func TestThresholdQuantile(t *testing.T) {
	scores := make([]float64, 100)
	for i := range scores {
		scores[i] = float64(i)
	}
	thr := Threshold(scores, 0.1)
	above := 0
	for _, s := range scores {
		if s > thr {
			above++
		}
	}
	if above < 8 || above > 12 {
		t.Fatalf("%d scores above threshold, want ~10", above)
	}
}

func TestThresholdEmpty(t *testing.T) {
	if thr := Threshold(nil, 0.1); thr != 0 {
		t.Fatalf("empty threshold %v", thr)
	}
}

func TestScaler(t *testing.T) {
	X := [][]float64{{0, 100}, {10, 100}, {20, 100}}
	var s scaledFit
	if err := s.fitScaler(X); err != nil {
		t.Fatal(err)
	}
	Z := s.transform(X)
	if math.Abs(Z[0][0]+Z[2][0]) > 1e-12 {
		t.Fatalf("transform not centered: %v", Z)
	}
	row := s.transform([][]float64{{10, 100}})[0]
	if math.Abs(row[0]) > 1e-12 || math.Abs(row[1]) > 1e-12 {
		t.Fatalf("row transform %v", row)
	}
}

func TestDetectorsFitErrorOnEmpty(t *testing.T) {
	for _, det := range All(3) {
		if err := det.Fit(nil); err == nil {
			t.Fatalf("%s: expected error on empty fit", det.Name())
		}
	}
}

func TestXGBODWithLabels(t *testing.T) {
	const n, m = 100, 10
	X := plantedData(n, m, 4, 9)
	y := make([]float64, n+m)
	for i := n; i < n+m; i++ {
		y[i] = 1
	}
	det := NewXGBOD(5)
	det.SetLabels(y)
	if err := det.Fit(X); err != nil {
		t.Fatal(err)
	}
	scores := det.Scores(X)
	// Labeled positives should score higher on average.
	inMean, outMean := 0.0, 0.0
	for i := 0; i < n; i++ {
		inMean += scores[i]
	}
	for i := n; i < n+m; i++ {
		outMean += scores[i]
	}
	inMean /= n
	outMean /= m
	if outMean <= inMean {
		t.Fatalf("supervised XGBOD failed: outlier mean %v <= inlier mean %v", outMean, inMean)
	}
}

func TestXGBODLabelShapeError(t *testing.T) {
	det := NewXGBOD(5)
	det.SetLabels([]float64{1})
	if err := det.Fit(plantedData(20, 2, 3, 1)); err == nil {
		t.Fatal("expected label-shape error")
	}
}

func TestLOFInlierNearOne(t *testing.T) {
	// Uniform data: LOF of interior points should hover around 1.
	rng := stats.NewRNG(11)
	X := make([][]float64, 200)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
	}
	det := NewLOF(10)
	if err := det.Fit(X); err != nil {
		t.Fatal(err)
	}
	scores := det.Scores(X)
	med := stats.Median(scores)
	if med < 0.8 || med > 1.3 {
		t.Fatalf("median LOF %v, want ~1 for uniform data", med)
	}
}

func TestIForestScoreRange(t *testing.T) {
	X := plantedData(100, 5, 3, 13)
	det := NewIForest(50, 64, 3)
	if err := det.Fit(X); err != nil {
		t.Fatal(err)
	}
	for _, s := range det.Scores(X) {
		if s < 0 || s > 1 {
			t.Fatalf("iforest score %v outside [0,1]", s)
		}
	}
}

func TestSOSScoreRange(t *testing.T) {
	X := plantedData(60, 4, 3, 17)
	det := NewSOS(4.5)
	if err := det.Fit(X); err != nil {
		t.Fatal(err)
	}
	for _, s := range det.Scores(X) {
		if s < 0 || s > 1 {
			t.Fatalf("sos score %v outside [0,1]", s)
		}
	}
}

func TestDetectorsScoreUnseenPoints(t *testing.T) {
	// Scoring points not in the training set must work for every detector.
	X := plantedData(80, 6, 3, 19)
	queries := plantedData(10, 2, 3, 23)
	for _, det := range All(29) {
		if err := det.Fit(X); err != nil {
			t.Fatalf("%s: %v", det.Name(), err)
		}
		s := det.Scores(queries)
		if len(s) != len(queries) {
			t.Fatalf("%s: %d scores for %d queries", det.Name(), len(s), len(queries))
		}
	}
}
