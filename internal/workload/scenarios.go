package workload

// scenarios.go is the named built-in scenario suite. Every perf claim in
// the repository after this layer landed should cite one of these names (or
// a checked-in JSON spec file) plus a seed — that pair reproduces the exact
// byte stream the number was measured against. The checked-in copies under
// examples/scenarios/ are the canonical serialized forms; a test pins them
// equal to these definitions so the files cannot drift from the code.

import (
	"fmt"
	"sort"
)

// builtinScenarios maps scenario names to constructors (fresh value per
// call: callers may mutate the returned spec).
var builtinScenarios = map[string]func() *WorkloadSpec{
	"steady":   steadyScenario,
	"diurnal":  diurnalScenario,
	"burst":    burstScenario,
	"hostile":  hostileScenario,
	"smoke":    smokeScenario,
	"overload": overloadScenario,
}

// ScenarioNames lists the built-in scenario names, sorted.
func ScenarioNames() []string {
	out := make([]string, 0, len(builtinScenarios))
	for n := range builtinScenarios {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Builtin returns a fresh copy of the named built-in scenario.
func Builtin(name string) (*WorkloadSpec, bool) {
	f, ok := builtinScenarios[name]
	if !ok {
		return nil, false
	}
	return f(), true
}

// typicalTasks is the shared job-size distribution: lognormal around ~60
// tasks with a moderate spread, clamped into the supported range.
func typicalTasks() DistSpec {
	return DistSpec{Dist: DistLogNormal, Mu: 4.1, Sigma: 0.4, Min: 25, Max: 300}
}

// typicalDuration is the shared job-makespan distribution: lognormal around
// ~8 virtual seconds with a long-but-bounded right tail.
func typicalDuration() DistSpec {
	return DistSpec{Dist: DistLogNormal, Mu: 2.1, Sigma: 0.5, Min: 2, Max: 40}
}

// steadyScenario: one well-behaved client at a flat Poisson rate — the
// baseline every other scenario is compared against.
func steadyScenario() *WorkloadSpec {
	return &WorkloadSpec{
		Name:     "steady",
		Seed:     42,
		Duration: 30,
		Trace:    "google",
		Clients: []ClientSpec{{
			Name:        "steady",
			Arrival:     ArrivalSpec{Process: ArrivalPoisson, Rate: 1.5},
			JobTasks:    typicalTasks(),
			JobDuration: typicalDuration(),
			FarFraction: 0.5,
		}},
	}
}

// diurnalScenario: two clients on out-of-phase multi-period rate curves — a
// slow "daily" swing with an "hourly" ripple on top, scaled into scenario
// time. Peak demand is roughly 3x the trough.
func diurnalScenario() *WorkloadSpec {
	return &WorkloadSpec{
		Name:     "diurnal",
		Seed:     42,
		Duration: 40,
		Trace:    "google",
		Clients: []ClientSpec{
			{
				Name: "day-shift",
				Arrival: ArrivalSpec{
					Process: ArrivalPoisson,
					Rate:    1.4,
					Curve: []RateComponent{
						{Period: 40, Amp: 0.7},
						{Period: 8, Amp: 0.25},
					},
				},
				JobTasks:    typicalTasks(),
				JobDuration: typicalDuration(),
				FarFraction: 0.5,
			},
			{
				Name: "night-batch",
				Arrival: ArrivalSpec{
					Process: ArrivalConstant,
					Rate:    0.5,
					Curve: []RateComponent{
						{Period: 40, Amp: 0.6, Phase: 3.14159},
					},
				},
				JobTasks:    DistSpec{Dist: DistLogNormal, Mu: 4.6, Sigma: 0.3, Min: 40, Max: 400},
				JobDuration: DistSpec{Dist: DistLogNormal, Mu: 2.5, Sigma: 0.4, Min: 4, Max: 40},
				FarFraction: 0.3,
			},
		},
	}
}

// burstScenario: a quiet baseline punctuated by ~8x arrival bursts — the
// shape that exposes queueing and admission behavior the steady scenario
// never touches.
func burstScenario() *WorkloadSpec {
	return &WorkloadSpec{
		Name:     "burst",
		Seed:     42,
		Duration: 36,
		Trace:    "google",
		Clients: []ClientSpec{{
			Name: "bursty",
			Arrival: ArrivalSpec{
				Process:     ArrivalBursty,
				Rate:        0.6,
				BurstEvery:  12,
				BurstLen:    2.5,
				BurstFactor: 8,
			},
			JobTasks:    typicalTasks(),
			JobDuration: DistSpec{Dist: DistLogNormal, Mu: 1.8, Sigma: 0.5, Min: 1.5, Max: 30},
			FarFraction: 0.5,
		}},
	}
}

// hostileScenario: steady traffic sharing the front end with an adversarial
// client — heavy-tailed job sizes (Pareto), a high far fraction, and a
// malformed-frame injection rate. The served traffic must stay correct and
// the injected frames must bounce as clean 400s.
func hostileScenario() *WorkloadSpec {
	return &WorkloadSpec{
		Name:     "hostile",
		Seed:     42,
		Duration: 30,
		Trace:    "google",
		Clients: []ClientSpec{
			{
				Name:          "legit",
				Arrival:       ArrivalSpec{Process: ArrivalPoisson, Rate: 1.1},
				JobTasks:      typicalTasks(),
				JobDuration:   typicalDuration(),
				FarFraction:   0.5,
				MalformedRate: 0.01,
			},
			{
				Name:          "attacker",
				Arrival:       ArrivalSpec{Process: ArrivalPoisson, Rate: 0.5},
				JobTasks:      DistSpec{Dist: DistPareto, Scale: 30, Shape: 1.3, Max: 600},
				JobDuration:   DistSpec{Dist: DistPareto, Scale: 2, Shape: 1.5, Max: 30},
				FarFraction:   0.9,
				MalformedRate: 0.15,
			},
		},
	}
}

// overloadScenario: sustained multi-lane pressure for the overload-control
// proof. Six concurrent clients of small, fast jobs produce far more
// simultaneous ingest streams than a deliberately under-provisioned server
// (one shard, a tiny ingest queue) can admit, forcing the shedding policy to
// act continuously: heartbeats shed, finishes wait, and a query prober
// (QueryRate, 25 probes per virtual second) measures whether verdict
// latency stays bounded while the ingest side saturates. CI-sized like
// smoke — seconds, not minutes, on shared runners.
func overloadScenario() *WorkloadSpec {
	clients := make([]ClientSpec, 6)
	for i := range clients {
		clients[i] = ClientSpec{
			Name:        fmt.Sprintf("lane-%d", i),
			Arrival:     ArrivalSpec{Process: ArrivalPoisson, Rate: 0.9},
			JobTasks:    DistSpec{Dist: DistLogNormal, Mu: 3.6, Sigma: 0.3, Min: 25, Max: 100},
			JobDuration: DistSpec{Dist: DistLogNormal, Mu: 1.1, Sigma: 0.4, Min: 1.5, Max: 8},
			FarFraction: 0.5,
		}
	}
	return &WorkloadSpec{
		Name:      "overload",
		Seed:      42,
		Duration:  10,
		Trace:     "google",
		Clients:   clients,
		QueryRate: 25,
	}
}

// smokeScenario: a CI-sized steady slice — the same shape as "steady" at a
// fraction of the volume, for fixed-seed smoke gates that must run in
// seconds on shared runners.
func smokeScenario() *WorkloadSpec {
	return &WorkloadSpec{
		Name:     "smoke",
		Seed:     7,
		Duration: 6,
		Trace:    "google",
		Clients: []ClientSpec{{
			Name:        "steady",
			Arrival:     ArrivalSpec{Process: ArrivalPoisson, Rate: 1.2},
			JobTasks:    DistSpec{Dist: DistLogNormal, Mu: 3.5, Sigma: 0.3, Min: 22, Max: 80},
			JobDuration: DistSpec{Dist: DistLogNormal, Mu: 1.0, Sigma: 0.4, Min: 1, Max: 8},
			FarFraction: 0.5,
		}},
	}
}
