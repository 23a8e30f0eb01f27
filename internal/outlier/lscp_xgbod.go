package outlier

import (
	"fmt"
	"math"

	"repro/internal/gbt"
	"repro/internal/knnindex"
)

// LSCP is locally selective combination in parallel outlier ensembles (Zhao
// et al. 2019): a pool of base LOF detectors with different neighborhood
// sizes; for each query, the detector whose training scores correlate best
// with the ensemble's pseudo ground truth over the query's local region is
// selected to produce the final score.
type LSCP struct {
	scaledFit
	// Ks are the neighborhood sizes of the base LOF detectors.
	Ks []int
	// Local is the local-region size used to select a detector per query.
	Local int
	Seed  uint64

	bases []*LOF
	index *knnindex.Index
	// trainScores[b][i] is detector b's normalized score on training row i.
	trainScores [][]float64
	// pseudo[i] is the ensemble-average (pseudo ground truth) score.
	pseudo []float64
}

// NewLSCP constructs an LSCP ensemble with base LOF detectors at the given
// neighborhood sizes.
func NewLSCP(ks []int, local int, seed uint64) *LSCP {
	if len(ks) == 0 {
		ks = []int{5, 10, 15, 20}
	}
	if local < 3 {
		local = 10
	}
	return &LSCP{Ks: ks, Local: local, Seed: seed}
}

// Name implements Detector.
func (d *LSCP) Name() string { return "LSCP" }

// Fit implements Detector.
func (d *LSCP) Fit(X [][]float64) error {
	if err := d.fitScaler(X); err != nil {
		return err
	}
	Z := d.transform(X)
	ix, err := knnindex.New(Z)
	if err != nil {
		return err
	}
	d.index = ix
	d.bases = d.bases[:0]
	d.trainScores = d.trainScores[:0]
	for _, k := range d.Ks {
		base := NewLOF(k)
		// Base detectors receive the raw X: they standardize themselves with
		// identical statistics, keeping scores comparable.
		if err := base.Fit(X); err != nil {
			return err
		}
		d.bases = append(d.bases, base)
		d.trainScores = append(d.trainScores, zscores(base.Scores(X)))
	}
	n := len(Z)
	d.pseudo = make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for b := range d.bases {
			s += d.trainScores[b][i]
		}
		d.pseudo[i] = s / float64(len(d.bases))
	}
	return nil
}

// Scores implements Detector.
func (d *LSCP) Scores(X [][]float64) []float64 {
	Z := d.transform(X)
	out := make([]float64, len(X))
	for qi := range X {
		nb := d.index.Query(Z[qi], d.Local, -1)
		best, bestCorr := 0, math.Inf(-1)
		for b := range d.bases {
			c := localCorr(d.trainScores[b], d.pseudo, nb)
			if c > bestCorr {
				bestCorr = c
				best = b
			}
		}
		out[qi] = d.bases[best].Scores([][]float64{X[qi]})[0]
	}
	return out
}

// localCorr is the Pearson correlation of a and b restricted to the
// neighbor indices.
func localCorr(a, b []float64, nb []knnindex.Neighbor) float64 {
	n := len(nb)
	if n < 2 {
		return 0
	}
	ma, mb := 0.0, 0.0
	for _, m := range nb {
		ma += a[m.Index]
		mb += b[m.Index]
	}
	ma /= float64(n)
	mb /= float64(n)
	var sab, saa, sbb float64
	for _, m := range nb {
		da, db := a[m.Index]-ma, b[m.Index]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// zscores standardizes a score vector.
func zscores(s []float64) []float64 {
	m, sd := 0.0, 0.0
	for _, v := range s {
		m += v
	}
	m /= float64(len(s))
	for _, v := range s {
		sd += (v - m) * (v - m)
	}
	sd = math.Sqrt(sd / float64(len(s)))
	if sd == 0 {
		sd = 1
	}
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = (v - m) / sd
	}
	return out
}

// XGBOD (Zhao & Hryniewicki 2018) augments the raw features with the scores
// of a pool of unsupervised detectors and trains a boosted-tree classifier on
// the augmented representation. The original is supervised; in the online
// straggler setting no positive labels exist, so — as in the paper's
// comparison — the classifier is trained on the finished-vs-running split
// (SetLabels) and scores are P(still running | x), the closest label signal
// available at a checkpoint.
type XGBOD struct {
	scaledFit
	// Seed drives the pool's isolation forest; the boosted classifier draws
	// no random numbers.
	Seed  uint64
	pool  []Detector
	model *gbt.Model
	// labels are supplied before Fit; len must match Fit's X.
	labels []float64
}

// NewXGBOD constructs an XGBOD detector with a default unsupervised pool.
func NewXGBOD(seed uint64) *XGBOD {
	return &XGBOD{Seed: seed}
}

// Name implements Detector.
func (d *XGBOD) Name() string { return "XGBOD" }

// SetLabels provides the pseudo-labels (1 = unlabeled/running, 0 =
// finished) for the next Fit call. Without labels, Fit falls back to scoring
// by the pooled unsupervised average.
func (d *XGBOD) SetLabels(y []float64) { d.labels = y }

// Fit implements Detector.
func (d *XGBOD) Fit(X [][]float64) error {
	if err := d.fitScaler(X); err != nil {
		return err
	}
	d.pool = []Detector{
		NewKNN(5),
		NewLOF(10),
		NewHBOS(10),
		NewIForest(50, 128, d.Seed),
		NewPCA(0.9),
	}
	for _, det := range d.pool {
		if err := det.Fit(X); err != nil {
			return err
		}
	}
	d.model = nil
	if d.labels != nil {
		if len(d.labels) != len(X) {
			return fmt.Errorf("outlier: XGBOD got %d labels for %d rows", len(d.labels), len(X))
		}
		aug := d.augment(X)
		cfg := gbt.DefaultConfig()
		cfg.NumTrees = 30
		m, err := gbt.FitClassifier(aug, d.labels, cfg)
		if err != nil {
			return err
		}
		d.model = m
	}
	return nil
}

// augment appends pooled detector scores to each feature row.
func (d *XGBOD) augment(X [][]float64) [][]float64 {
	scores := make([][]float64, len(d.pool))
	for b, det := range d.pool {
		scores[b] = zscores(det.Scores(X))
	}
	out := make([][]float64, len(X))
	for i, row := range X {
		r := make([]float64, 0, len(row)+len(d.pool))
		r = append(r, row...)
		for b := range d.pool {
			r = append(r, scores[b][i])
		}
		out[i] = r
	}
	return out
}

// Scores implements Detector.
func (d *XGBOD) Scores(X [][]float64) []float64 {
	if d.model != nil {
		aug := d.augment(X)
		out := make([]float64, len(aug))
		for i, row := range aug {
			out[i] = d.model.PredictProb(row)
		}
		return out
	}
	// Unsupervised fallback: mean of normalized pool scores.
	scores := make([][]float64, len(d.pool))
	for b, det := range d.pool {
		scores[b] = zscores(det.Scores(X))
	}
	out := make([]float64, len(X))
	for i := range X {
		s := 0.0
		for b := range d.pool {
			s += scores[b][i]
		}
		out[i] = s / float64(len(d.pool))
	}
	return out
}
