//go:build race

package servehttp

// raceEnabled reports that the race detector is active. Under it sync.Pool
// drops a quarter of what it is given (on purpose, to widen the windows it
// checks), so TestQueryHandlerAllocs — whose bound is the pooled steady
// state — runs only in the plain build.
const raceEnabled = true
