package linmodel

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestFitLogisticBitsPinned pins W, B, Mean and Std of every fitCases fit,
// bit for bit, to what the Newton fit produced when it replaced the 200-step
// gradient descent (that change moved the hash: the descent stopped short of
// the minimiser, Newton converges to it). A change that moves it has changed
// the propensity scores, and with them every verdict the serving stack's
// equivalence tests and the benchmark's macro_f1 compare.
func TestFitLogisticBitsPinned(t *testing.T) {
	const pinned = uint64(0xc938ba59155f18c2)
	h := fnv.New64a()
	var b [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, c := range fitCases() {
		m, err := FitLogistic(c.X, c.y, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		put(m.W...)
		put(m.B)
		put(m.Mean...)
		put(m.Std...)
	}
	if got := h.Sum64(); got != pinned {
		t.Errorf("fit hash %#x, pinned %#x", got, pinned)
	}
}
