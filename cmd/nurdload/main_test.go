package main

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/servehttp"
	"repro/internal/workload"
)

// TestRunArgumentRules pins run's documented exit-1 rules: each bad
// combination fails with a message naming the problem, before any traffic
// is sent.
func TestRunArgumentRules(t *testing.T) {
	const a, b = "http://127.0.0.1:1", "http://127.0.0.1:2"
	for _, tc := range []struct {
		name    string
		args    runArgs
		wantErr string
	}{
		{"no arguments", runArgs{}, "need -scenario"},
		{"missing -url", runArgs{scenario: "smoke"}, "need -url"},
		{"-overload-check without -scenario", runArgs{overCheck: 100, url: a, baselineURL: b}, "need -scenario"},
		{"-overload-check without -baseline-url", runArgs{overCheck: 100, scenario: "overload", url: a}, "needs -baseline-url"},
		{"equal URLs", runArgs{overCheck: 100, scenario: "overload", url: a, baselineURL: a + "/"}, "are equal"},
		{"-baseline-url without -overload-check", runArgs{scenario: "smoke", url: a, baselineURL: b}, "only used by -overload-check"},
		{"unknown scenario", runArgs{scenario: "no-such-scenario", url: a}, "neither a built-in scenario"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%+v) succeeded, want an error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunList: -list prints the catalog and succeeds.
func TestRunList(t *testing.T) {
	if err := run(runArgs{list: true}); err != nil {
		t.Fatal(err)
	}
}

// frontEnd starts an HTTP front end over a fresh server built from cfg.
func frontEnd(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	sv := serve.NewServer(cfg)
	ts := httptest.NewServer(servehttp.NewHandler(sv))
	t.Cleanup(ts.Close)
	return sv, ts.URL
}

// TestRunFailsOnUnexpectedErrors: a plain run (no -max-rate-gap) against a
// server that already holds the scenario's jobs must exit 1, not report
// its duplicate-registration 422s and succeed.
func TestRunFailsOnUnexpectedErrors(t *testing.T) {
	ws, _ := workload.Builtin("smoke")
	wl, err := workload.Synthesize(ws)
	if err != nil {
		t.Fatal(err)
	}
	sv, url := frontEnd(t, serve.Config{})
	for i := range wl.Items {
		if sp := wl.Items[i].Spec; sp != nil {
			if err := sv.StartJob(*sp, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	err = run(runArgs{scenario: "smoke", url: url, speedup: 20, out: filepath.Join(t.TempDir(), "r.json")})
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("run against a server holding the scenario's jobs: got %v, want an error naming the duplicate registration", err)
	}
}

// TestOverloadCheckGate drives the overload proof end to end against two
// front ends configured like CI's two nurdserve processes: it passes when
// the -url server is starved, and fails with "shed nothing" when both are
// healthy.
func TestOverloadCheckGate(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop runs sleep on the wall clock")
	}
	healthy := serve.Config{Shards: 1}
	starved := serve.Config{Shards: 1, ClientRate: 600, IngestQueue: 1}
	check := func(urlCfg serve.Config) error {
		_, base := frontEnd(t, healthy)
		_, url := frontEnd(t, urlCfg)
		return run(runArgs{scenario: "overload", speedup: 6, baselineURL: base, url: url,
			overCheck: 100, f1Eps: 0.1, out: filepath.Join(t.TempDir(), "v.json")})
	}
	if err := check(starved); err != nil {
		t.Fatalf("starved -url server: %v", err)
	}
	if err := check(healthy); err == nil || !strings.Contains(err.Error(), "shed nothing") {
		t.Fatalf("two healthy servers: got %v, want a gate failure saying the run shed nothing", err)
	}
}
