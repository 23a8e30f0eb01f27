package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRatesKnown(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, TN: 88, FN: 2}
	if got := c.TPR(); got != 0.8 {
		t.Fatalf("TPR %v", got)
	}
	if got := c.FPR(); math.Abs(got-2.0/90) > 1e-12 {
		t.Fatalf("FPR %v", got)
	}
	if got := c.FNR(); got != 0.2 {
		t.Fatalf("FNR %v", got)
	}
	if got := c.F1(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("F1 %v", got)
	}
}

func TestRatesEmptyDenominators(t *testing.T) {
	var c Confusion
	if c.TPR() != 0 || c.FPR() != 0 || c.FNR() != 0 || c.F1() != 0 {
		t.Fatal("zero confusion should yield zero rates")
	}
}

func TestTPRPlusFNR(t *testing.T) {
	c := Confusion{TP: 3, FN: 7}
	if got := c.TPR() + c.FNR(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("TPR+FNR = %v, want 1", got)
	}
}

func TestFromSets(t *testing.T) {
	pred := []bool{true, true, false, false}
	truth := []bool{true, false, true, false}
	c, err := FromSets(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion %+v", c)
	}
}

func TestFromSetsMismatch(t *testing.T) {
	if _, err := FromSets([]bool{true}, []bool{true, false}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestMacroAverage(t *testing.T) {
	rs := []Rates{
		{TPR: 1, FPR: 0, FNR: 0, F1: 1},
		{TPR: 0, FPR: 1, FNR: 1, F1: 0},
	}
	avg := MacroAverage(rs)
	if avg.TPR != 0.5 || avg.FPR != 0.5 || avg.FNR != 0.5 || avg.F1 != 0.5 {
		t.Fatalf("macro avg %+v", avg)
	}
	if got := MacroAverage(nil); got != (Rates{}) {
		t.Fatalf("empty macro avg %+v", got)
	}
}

func TestF1BoundsProperty(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), TN: int(tn), FN: int(fn)}
		for _, v := range []float64{c.TPR(), c.FPR(), c.FNR(), c.F1()} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestF1HarmonicMeanProperty(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), FN: int(fn)}
		if c.TP == 0 {
			return true
		}
		p, r := float64(c.TP)/float64(c.TP+c.FP), c.TPR()
		want := 2 * p * r / (p + r)
		return math.Abs(c.F1()-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	c := Confusion{TP: 1, FP: 2, TN: 3, FN: 4}
	if got := c.String(); got != "TP=1 FP=2 TN=3 FN=4" {
		t.Fatalf("string %q", got)
	}
}
