//go:build race

package serve

// raceEnabled reports that the race detector is active: the heap test skips,
// since its 200 NURD jobs take minutes under the detector and the detector
// does not change what a job retains.
const raceEnabled = true
