//go:build !race

package nurd

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
