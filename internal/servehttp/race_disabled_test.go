//go:build !race

package servehttp

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
