package nurd

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/stats"
)

// pinJob is a seeded 15-feature job shaped like the benchmark's: heavy-tailed
// non-negative usage columns (which logFeaturesInto compresses) beside roughly
// normal ones, finished tasks first, the still-running ones drifting upward.
func pinJob() (fin [][]float64, finY []float64, run [][]float64) {
	rng := stats.NewRNG(20260928)
	const nFin, nRun, d = 150, 70, 15
	row := func(shift float64) []float64 {
		x := make([]float64, d)
		for j := range x {
			if j%3 == 0 {
				x[j] = rng.LogNormal(shift, 1.2)
			} else {
				x[j] = 1 + shift + rng.Normal(0, 0.4)
			}
		}
		return x
	}
	for i := 0; i < nFin; i++ {
		x := row(0.002 * float64(i))
		fin = append(fin, x)
		finY = append(finY, 10+2*x[1]+math.Log1p(x[0])+rng.Normal(0, 0.5))
	}
	for i := 0; i < nRun; i++ {
		run = append(run, row(0.6))
	}
	return fin, finY, run
}

// TestRefitPredictionBitsPinned pins every Prediction field of every running
// task, bit for bit, across a five-checkpoint Refit sequence (the finished
// set growing, the running set shrinking) in the scratch and in the warm
// configuration, to the values the [][]float64 propensity fit produced
// (hashes recorded on the commit before the flat kernel replaced it). The
// reused propensity buffers shrink and grow across the sequence, so a stale
// row or label left in them would move a hash.
func TestRefitPredictionBitsPinned(t *testing.T) {
	fin, finY, run := pinJob()
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"scratch", DefaultConfig(), 0xd3d7ee7732b82e70},
		{"warm", DefaultWarmConfig(), 0xe8980d9b60aa75e2},
	} {
		c.cfg.Seed = 7
		m := New(c.cfg)
		if err := m.Init(fin[:40], run); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		for k, cut := range []int{40, 75, 110, 130, 150} {
			running := run[:len(run)-12*k]
			if k == 3 {
				running = run // the running set grows again
			}
			if err := m.Refit(fin[:cut], finY[:cut], running); err != nil {
				t.Fatal(err)
			}
			preds, err := m.PredictBatch(running, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range preds {
				for _, v := range [4]float64{p.Latency, p.Propensity, p.Weight, p.Adjusted} {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: prediction hash %#x, pinned %#x", c.name, got, c.want)
		}
	}
}
