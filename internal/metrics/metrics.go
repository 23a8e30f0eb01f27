// Package metrics provides the confusion-matrix statistics the paper
// reports: TPR, FPR, FNR, and F1, plus macro-averaging across jobs.
package metrics

import "fmt"

// Confusion holds binary classification counts with stragglers as the
// positive class.
type Confusion struct {
	TP, FP, TN, FN int
}

// TPR returns the true-positive rate (recall), or 0 with no positives.
func (c Confusion) TPR() float64 {
	den := c.TP + c.FN
	if den == 0 {
		return 0
	}
	return float64(c.TP) / float64(den)
}

// FPR returns the false-positive rate, or 0 with no negatives.
func (c Confusion) FPR() float64 {
	den := c.FP + c.TN
	if den == 0 {
		return 0
	}
	return float64(c.FP) / float64(den)
}

// FNR returns the false-negative rate (1 - TPR when positives exist).
func (c Confusion) FNR() float64 {
	den := c.TP + c.FN
	if den == 0 {
		return 0
	}
	return float64(c.FN) / float64(den)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	den := 2*c.TP + c.FP + c.FN
	if den == 0 {
		return 0
	}
	return 2 * float64(c.TP) / float64(den)
}

// String renders the counts compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d", c.TP, c.FP, c.TN, c.FN)
}

// FromSets builds a Confusion from predicted and true boolean labels.
func FromSets(pred, truth []bool) (Confusion, error) {
	if len(pred) != len(truth) {
		return Confusion{}, fmt.Errorf("metrics: %d predictions for %d labels", len(pred), len(truth))
	}
	var c Confusion
	for i := range pred {
		switch {
		case pred[i] && truth[i]:
			c.TP++
		case pred[i] && !truth[i]:
			c.FP++
		case !pred[i] && truth[i]:
			c.FN++
		default:
			c.TN++
		}
	}
	return c, nil
}

// Rates is the row format of the paper's Table 3.
type Rates struct {
	TPR, FPR, FNR, F1 float64
}

// RatesOf extracts the four reported rates from a confusion matrix.
func RatesOf(c Confusion) Rates {
	return Rates{TPR: c.TPR(), FPR: c.FPR(), FNR: c.FNR(), F1: c.F1()}
}

// MacroAverage averages per-job rates (each job weighted equally, as in the
// paper's "averaged results over all jobs").
func MacroAverage(rs []Rates) Rates {
	if len(rs) == 0 {
		return Rates{}
	}
	var out Rates
	for _, r := range rs {
		out.TPR += r.TPR
		out.FPR += r.FPR
		out.FNR += r.FNR
		out.F1 += r.F1
	}
	n := float64(len(rs))
	out.TPR /= n
	out.FPR /= n
	out.FNR /= n
	out.F1 /= n
	return out
}
