//go:build !race

package serve

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
