package nurd

import (
	"math"
	"testing"
)

// fitted builds a model on a strongly shifted finished/running split so the
// propensity of running-like tasks is genuinely low.
func fitted(t *testing.T, cfg Config) (*Model, [][]float64, [][]float64) {
	t.Helper()
	fin, run, finY := split(80, 40, 4, 3, 21)
	m := New(cfg)
	if err := m.Init(fin, run); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(fin, finY, run); err != nil {
		t.Fatal(err)
	}
	return m, fin, run
}

// TestEpsilonClampBinds forces the lower clamp: with a large Epsilon, every
// task whose calibrated propensity falls below it gets exactly w = Epsilon
// (the minimum positive weight that bounds dilation at 1/Epsilon).
func TestEpsilonClampBinds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epsilon = 0.95
	m, _, run := fitted(t, cfg)
	bound := 0
	for _, x := range run {
		p, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if raw := p.Propensity + m.Delta(); raw < cfg.Epsilon {
			if p.Weight != cfg.Epsilon {
				t.Fatalf("propensity+delta=%v below Epsilon=%v but weight=%v",
					raw, cfg.Epsilon, p.Weight)
			}
			if want := p.Latency / cfg.Epsilon; math.Abs(p.Adjusted-want) > 1e-9*want {
				t.Fatalf("clamped dilation %v, want %v", p.Adjusted, want)
			}
			bound++
		}
	}
	if bound == 0 {
		t.Fatal("no running task exercised the Epsilon clamp; shift the split harder")
	}
}

// TestUpperClampBinds forces the upper clamp: a huge Alpha drives the
// calibration term past 1, so every weight saturates at exactly 1 and the
// adjusted latency degenerates to the raw prediction.
func TestUpperClampBinds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 50
	m, fin, run := fitted(t, cfg)
	if m.Delta() < 1 {
		t.Fatalf("delta %v too small to force the upper clamp", m.Delta())
	}
	for _, x := range append(append([][]float64{}, fin[:5]...), run[:5]...) {
		p, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if p.Weight != 1 {
			t.Fatalf("weight %v, want exactly 1 under saturating delta", p.Weight)
		}
		if p.Adjusted != p.Latency {
			t.Fatalf("adjusted %v != raw %v at w=1", p.Adjusted, p.Latency)
		}
	}
}

// TestNCWeightIsExactlyPropensity pins the NURD-NC ablation: with
// Calibrate=false and a negligible Epsilon, the weight IS the propensity
// (w = z, no delta), not merely close to it.
func TestNCWeightIsExactlyPropensity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Calibrate = false
	cfg.Epsilon = 1e-9
	m, fin, run := fitted(t, cfg)
	for _, x := range append(append([][]float64{}, fin[:10]...), run[:10]...) {
		p, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if p.Propensity < cfg.Epsilon || p.Propensity > 1 {
			continue // clamp legitimately binds
		}
		if p.Weight != p.Propensity {
			t.Fatalf("NC weight %v != propensity %v", p.Weight, p.Propensity)
		}
		if want := p.Latency / p.Propensity; p.Adjusted != want {
			t.Fatalf("NC adjusted %v != latency/z %v", p.Adjusted, want)
		}
	}
}

// TestNoRunningSetFallsBackToUnitWeight covers Update with an empty running
// set: no propensity model can be fit, so Predict reports z = 1 and (after
// clipping) w = 1 — predictions reduce to the raw latency model.
func TestNoRunningSetFallsBackToUnitWeight(t *testing.T) {
	fin, run, finY := split(60, 30, 3, 2, 22)
	m := New(DefaultConfig())
	if err := m.Init(fin, run); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(fin, finY, nil); err != nil {
		t.Fatal(err)
	}
	p, err := m.Predict(run[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Propensity != 1 || p.Weight != 1 {
		t.Fatalf("no propensity model: z=%v w=%v, want 1/1", p.Propensity, p.Weight)
	}
	if p.Adjusted != p.Latency {
		t.Fatalf("adjusted %v != raw latency %v", p.Adjusted, p.Latency)
	}
}

// TestLifecycleErrors pins the call-order contract: Update before Init,
// Predict before Update, and inconsistent training shapes all error.
func TestLifecycleErrors(t *testing.T) {
	fin, run, finY := split(20, 10, 2, 1, 23)

	m := New(DefaultConfig())
	if err := m.Update(fin, finY, run); err == nil {
		t.Error("Update before Init must error")
	}
	if _, err := m.Predict(run[0]); err == nil {
		t.Error("Predict before Update must error")
	}
	if err := m.Init(fin, run); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(run[0]); err == nil {
		t.Error("Predict after Init but before Update must error")
	}
	if err := m.Update(nil, nil, run); err == nil {
		t.Error("Update with no finished tasks must error")
	}
	if err := m.Update(fin, finY[:len(finY)-1], run); err == nil {
		t.Error("Update with mismatched X/y lengths must error")
	}
}
