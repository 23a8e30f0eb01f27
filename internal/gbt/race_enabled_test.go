//go:build race

package gbt

// raceEnabled reports that the race detector is active. Under it sync.Pool
// drops a share of its Puts on purpose, so a fit that borrows pooled working
// memory allocates it again now and then, and the allocation budgets skip:
// CI's "Allocation budgets" step runs them without the detector.
const raceEnabled = true
