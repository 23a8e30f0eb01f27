package wire

import (
	"math"
	"strings"
	"testing"
)

// TestJobSpecValidateFloats: every float field of a spec must be finite and
// in range, NaN included — a NaN threshold or an infinite horizon would
// register a job whose every later report fails.
func TestJobSpecValidateFloats(t *testing.T) {
	valid := JobSpec{JobID: 3, Schema: []string{"cpu", "mem"}, NumTasks: 8, TauStra: 12.5,
		StragglerQuantile: 0.9, Horizon: 100, Checkpoints: 10, WarmFrac: 0.04}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		field string
		set   func(*JobSpec)
	}{
		{"TauStra", func(sp *JobSpec) { sp.TauStra = nan }},
		{"TauStra", func(sp *JobSpec) { sp.TauStra = inf }},
		{"TauStra", func(sp *JobSpec) { sp.TauStra = 0 }},
		{"TauStra", func(sp *JobSpec) { sp.TauStra = math.Inf(-1) }},
		{"Horizon", func(sp *JobSpec) { sp.Horizon = nan }},
		{"Horizon", func(sp *JobSpec) { sp.Horizon = inf }},
		{"Horizon", func(sp *JobSpec) { sp.Horizon = -1 }},
		{"WarmFrac", func(sp *JobSpec) { sp.WarmFrac = nan }},
		{"WarmFrac", func(sp *JobSpec) { sp.WarmFrac = inf }},
		{"WarmFrac", func(sp *JobSpec) { sp.WarmFrac = 0.5 }},
		{"StragglerQuantile", func(sp *JobSpec) { sp.StragglerQuantile = nan }},
		{"StragglerQuantile", func(sp *JobSpec) { sp.StragglerQuantile = 0 }},
		{"StragglerQuantile", func(sp *JobSpec) { sp.StragglerQuantile = 1 }},
		{"StragglerQuantile", func(sp *JobSpec) { sp.StragglerQuantile = -0.1 }},
		{"StragglerQuantile", func(sp *JobSpec) { sp.StragglerQuantile = inf }},
	} {
		sp := valid
		c.set(&sp)
		err := sp.Validate()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: error %v, want one naming %s", sp, err, c.field)
		}
	}
	// The boundaries that stay valid.
	for _, set := range []func(*JobSpec){
		func(sp *JobSpec) { sp.TauStra = math.MaxFloat64 },
		func(sp *JobSpec) { sp.Horizon = math.SmallestNonzeroFloat64 },
		func(sp *JobSpec) { sp.StragglerQuantile = 0.999 },
		func(sp *JobSpec) { sp.WarmFrac = 0.49 },
	} {
		sp := valid
		set(&sp)
		if err := sp.Validate(); err != nil {
			t.Errorf("%+v: %v", sp, err)
		}
	}
}
