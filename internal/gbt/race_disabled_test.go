//go:build !race

package gbt

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
