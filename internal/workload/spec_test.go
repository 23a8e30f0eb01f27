package workload

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestSpecJSONRoundTrip: every builtin scenario survives serialize → parse
// with nothing lost — the property that makes a checked-in spec file a full
// reproduction recipe.
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, name := range ScenarioNames() {
		ws, ok := Builtin(name)
		if !ok {
			t.Fatalf("builtin %q missing", name)
		}
		data, err := ws.marshalIndentJSON()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		data2, err := back.marshalIndentJSON()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if string(data) != string(data2) {
			t.Errorf("%s: round trip is lossy:\n%s\nvs\n%s", name, data, data2)
		}
		if err := back.Validate(); err != nil {
			t.Errorf("%s: parsed spec invalid: %v", name, err)
		}
	}
}

// TestSpecUnknownFieldRejected: typos in a spec file must fail loudly, not
// silently fall back to defaults.
func TestSpecUnknownFieldRejected(t *testing.T) {
	_, err := ParseSpec([]byte(`{"name":"x","seed":1,"duration_s":5,"clients":[],"ratee":3}`))
	if err == nil || !strings.Contains(err.Error(), "ratee") {
		t.Errorf("unknown field accepted: %v", err)
	}
}

// TestSpecValidation walks the documented rejection paths.
func TestSpecValidation(t *testing.T) {
	base := func() *WorkloadSpec {
		ws, _ := Builtin("smoke")
		return ws
	}
	cases := []struct {
		name string
		mut  func(*WorkloadSpec)
		want string
	}{
		{"no clients", func(ws *WorkloadSpec) { ws.Clients = nil }, "client"},
		{"zero duration", func(ws *WorkloadSpec) { ws.Duration = 0 }, "Duration"},
		{"bad trace", func(ws *WorkloadSpec) { ws.Trace = "azure" }, "trace"},
		{"bad process", func(ws *WorkloadSpec) { ws.Clients[0].Arrival.Process = "weibull" }, "process"},
		{"zero rate", func(ws *WorkloadSpec) { ws.Clients[0].Arrival.Rate = 0 }, "rate"},
		{"bursty needs factor", func(ws *WorkloadSpec) {
			ws.Clients[0].Arrival = ArrivalSpec{Process: ArrivalBursty, Rate: 1, BurstEvery: 5, BurstLen: 1, BurstFactor: 1}
		}, "burst_factor"},
		{"bad dist", func(ws *WorkloadSpec) { ws.Clients[0].JobTasks = DistSpec{Dist: "weibull", Value: 3} }, "dist"},
		{"malformed rate range", func(ws *WorkloadSpec) { ws.Clients[0].MalformedRate = 1.5 }, "malformed_rate"},
		{"negative query rate", func(ws *WorkloadSpec) { ws.QueryRate = -1 }, "query_rate"},
		{"curve amp blowup", func(ws *WorkloadSpec) {
			ws.Clients[0].Arrival.Curve = []RateComponent{{Period: 10, Amp: 5}}
		}, "amp"},
	}
	for _, tc := range cases {
		ws := base()
		tc.mut(ws)
		err := ws.Validate()
		if err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestDistSample: distributions honor their clamps and degenerate cases.
func TestDistSample(t *testing.T) {
	rng := stats.NewRNG(1)
	constant := DistSpec{Dist: DistConstant, Value: 7}
	for i := 0; i < 8; i++ {
		if v := constant.Sample(rng); v != 7 {
			t.Fatalf("constant dist sampled %v", v)
		}
	}
	clamped := DistSpec{Dist: DistPareto, Scale: 2, Shape: 1.1, Min: 3, Max: 9}
	for i := 0; i < 4096; i++ {
		v := clamped.Sample(rng)
		if v < 3 || v > 9 {
			t.Fatalf("pareto sample %v escaped clamp [3, 9]", v)
		}
	}
	uni := DistSpec{Dist: DistUniform, Min: 10, Max: 20}
	for i := 0; i < 4096; i++ {
		v := uni.Sample(rng)
		if v < 10 || v >= 20 {
			t.Fatalf("uniform sample %v outside [10, 20)", v)
		}
	}
}

// TestLoadSpecBuiltin: LoadSpec resolves builtin names before touching the
// filesystem.
func TestLoadSpecBuiltin(t *testing.T) {
	ws, err := LoadSpec("steady")
	if err != nil {
		t.Fatal(err)
	}
	if ws.Name != "steady" {
		t.Errorf("LoadSpec(steady) returned %q", ws.Name)
	}
	if _, err := LoadSpec("no-such-scenario-or-file.json"); err == nil {
		t.Error("LoadSpec of a missing name should fail")
	}
}

// marshalIndentJSON renders the spec as the canonical scenario-file form.
func (ws *WorkloadSpec) marshalIndentJSON() ([]byte, error) {
	b, err := json.MarshalIndent(ws, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
