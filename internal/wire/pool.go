package wire

import "sync"

// The observation pool.
//
// NextInto draws each decoded event's feature slice from obsPool and tags
// the Event Pooled; its caller returns the slice with PutObservation once
// nothing reads it. Only the benchmark's decode-only wire layer walks a
// stream that way. The server does not use the pool: serve.Server.Feed
// decodes every event into one buffer its body reuses (DecodeEventInto's
// buf), and a task keeps its features in a row it owns, which each
// heartbeat overwrites and each checkpoint view copies. The pool, the
// Pooled tag and NextInto are to go together once that layer times
// NextFrame plus DecodeEventInto instead.

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
