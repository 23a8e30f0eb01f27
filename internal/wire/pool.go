package wire

import "sync"

// Ingest allocation discipline.
//
// Every heartbeat used to allocate a fresh []float64 at decode and leak the
// task's previous observation to the garbage collector when the next
// heartbeat replaced it — at serving rates that is one short-lived
// allocation per event on the hottest path in the system. The observation
// pool closes the loop: serve.Server.Feed, the one loop every stream goes
// through, draws feature slices from obsPool via DecodeEventInto, and a
// slice is returned exactly when it provably has no readers:
//
//   - in Feed, when the ingest did not retain it (a rejected or shed
//     heartbeat, or a non-heartbeat event that carried features), and
//   - inside jobState.handle, when a newer heartbeat replaces a task's
//     current observation that no checkpoint view ever captured.
//
// Provenance is tracked end to end: only slices tagged pooled (set by the
// pooled decode path alone) are ever recycled, and a pooled slice aliased
// into a checkpoint view (taskState.captured) is permanently off limits —
// the view's fit reads it on a refit worker, off the job lock. Everything
// else — queries, WAL encoding — copies or finishes reading under the job
// lock before the replacement that would recycle the slice can run.

// MaxPooledObs bounds the capacity of slices kept by the pool so one
// oversized (yet wire-legal) frame cannot pin large buffers for the
// lifetime of the process.
const MaxPooledObs = 4096

var obsPool = sync.Pool{}

// GetObservation returns a pooled slice of length n, or a fresh one when
// the pool is empty or its buffer is too small.
func GetObservation(n int) []float64 {
	if v := obsPool.Get(); v != nil {
		if s := *(v.(*[]float64)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

// PutObservation returns a slice to the pool. Callers must guarantee no
// remaining readers; the next GetObservation will overwrite it.
func PutObservation(s []float64) {
	if cap(s) == 0 || cap(s) > MaxPooledObs {
		return
	}
	s = s[:0]
	obsPool.Put(&s)
}
