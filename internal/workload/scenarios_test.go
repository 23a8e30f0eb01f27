package workload

import (
	"os"
	"path/filepath"
	"testing"
)

// TestScenarioFilesPinned: the checked-in spec files under
// examples/scenarios/ are the canonical serialized forms of the builtins —
// byte-for-byte. A drift in either direction fails here; regenerate with
// marshalIndentJSON when a builtin legitimately changes.
func TestScenarioFilesPinned(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "scenarios")
	for _, name := range ScenarioNames() {
		ws, _ := Builtin(name)
		want, err := ws.marshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			t.Fatalf("%s: checked-in spec file missing: %v", name, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: examples/scenarios/%s.json drifted from the builtin definition", name, name)
		}
	}
	// And the files parse back to valid, identical specs through the public
	// loader (what nurdload -scenario <file> does).
	for _, name := range ScenarioNames() {
		path := filepath.Join(dir, name+".json")
		ws, err := LoadSpec(path)
		if err != nil {
			t.Fatalf("LoadSpec(%s): %v", path, err)
		}
		builtin, _ := Builtin(name)
		a, _ := ws.marshalIndentJSON()
		b, _ := builtin.marshalIndentJSON()
		if string(a) != string(b) {
			t.Errorf("%s: file-loaded spec differs from builtin", name)
		}
	}
}
