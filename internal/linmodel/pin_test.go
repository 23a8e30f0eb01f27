package linmodel

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestFitLogisticBitsPinned pins W, B, Mean and Std of every fitCases fit,
// bit for bit, to what the [][]float64 training loop produced (hash recorded
// on the commit before the flat three-pass kernel replaced it, with that
// commit's FitLogistic, not the copy in reference_test.go). A change that
// moves it has changed the propensity scores, and with them every verdict
// the serving stack's equivalence tests and the benchmark's macro_f1 compare.
func TestFitLogisticBitsPinned(t *testing.T) {
	const pinned = uint64(0xad925295d3a14704)
	cases := fitCases()
	withEachKernel(func(kernel string) {
		h := fnv.New64a()
		var b [8]byte
		put := func(vs ...float64) {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		for _, c := range cases {
			m, err := FitLogistic(c.X, c.y, c.cfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", c.name, kernel, err)
			}
			put(m.W...)
			put(m.B)
			put(m.Mean...)
			put(m.Std...)
		}
		if got := h.Sum64(); got != pinned {
			t.Errorf("%s: fit hash %#x, pinned %#x", kernel, got, pinned)
		}
	})
}
