package main

import (
	"strings"
	"testing"
)

// TestRunArgumentRules pins run's documented exit-1 rules: each bad
// combination fails with a message naming the problem, before any server
// starts or any traffic is sent.
func TestRunArgumentRules(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    runArgs
		wantErr string
	}{
		{"no arguments", runArgs{}, "need -scenario"},
		{"-all with -scenario", runArgs{all: true, scenario: "smoke"}, "mutually exclusive"},
		{"-overload-check without -scenario", runArgs{overCheck: 100}, "exactly one -scenario"},
		{"-overload-check with -all", runArgs{overCheck: 100, all: true, scenario: "overload"}, "exactly one -scenario"},
		{"-overload-check with -url", runArgs{overCheck: 100, scenario: "overload", url: "http://127.0.0.1:1"}, "cannot target -url"},
		{"unknown scenario", runArgs{scenario: "no-such-scenario"}, "neither a built-in scenario"},
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
