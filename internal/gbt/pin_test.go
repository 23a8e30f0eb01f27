package gbt

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/stats"
)

// pinData is a seeded 160x6 matrix with the shapes split finding is
// sensitive to: continuous columns, one column quantised to ten levels
// (ties inside every node), one binary column, and a few duplicated rows.
func pinData() (X [][]float64, y, label []float64, censored []bool) {
	rng := stats.NewRNG(20260928)
	const n = 160
	X = make([][]float64, n)
	y = make([]float64, n)
	label = make([]float64, n)
	censored = make([]bool, n)
	for i := range X {
		x := []float64{
			rng.Normal(0, 1),
			rng.Float64() * 4,
			math.Floor(rng.Float64() * 10),
			rng.LogNormal(0, 1),
			0,
			rng.Normal(0, 3),
		}
		if rng.Bernoulli(0.4) {
			x[4] = 1
		}
		X[i] = x
		y[i] = 3*x[0] - 2*x[1] + 0.5*x[2] + 2*x[4] + rng.Normal(0, 0.3)
		if y[i] > 0 {
			label[i] = 1
		}
		censored[i] = rng.Bernoulli(0.25)
	}
	for i := 5; i < n; i += 11 {
		X[i] = X[i-1]
	}
	censored[0] = false
	return X, y, label, censored
}

func predictHash(m *Model, X [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range X {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(walkTrees(m, x)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestFitBitsPinned pins every fitter's predictions, bit for bit, to the
// values the sort-per-node split finder produced (hashes recorded on the
// commit before the presorted finder replaced it; the column-sampled row on
// the commit before row subsampling was deleted). A change that moves any
// of them has changed which trees a fit grows, and with that every verdict
// the serving stack's equivalence tests compare.
func TestFitBitsPinned(t *testing.T) {
	X, y, label, censored := pinData()
	full := DefaultConfig()
	full.Seed = 7
	sampled := full
	sampled.Tree.FeatureFrac = 0.5
	for _, sub := range []struct {
		name string
		cfg  Config
		want [4]uint64 // FitRegressor, Extend, FitClassifier, FitTobit
	}{
		{"full", full, [4]uint64{0xf958c37a952796b0, 0x541d2f0b9aca139b, 0x91104d4e22802a82, 0x73158a714e899e9f}},
		{"featurefrac0.5", sampled, [4]uint64{0xba0cf6ba04e6a85a, 0xfc714ff5446d1204, 0x2795d08d96a95898, 0x90901d8a63646c28}},
	} {
		reg, err := FitRegressor(X[:120], y[:120], sub.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := reg.Extend(X, y, 16, sub.cfg)
		if err != nil {
			t.Fatal(err)
		}
		cls, err := FitClassifier(X, label, sub.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tob, err := FitTobit(X, y, censored, 0, sub.cfg)
		if err != nil {
			t.Fatal(err)
		}
		names := [4]string{"FitRegressor", "Extend", "FitClassifier", "FitTobit"}
		for i, m := range [4]*Model{reg, ext, cls, tob} {
			if got := predictHash(m, X); got != sub.want[i] {
				t.Errorf("%s/%s: prediction hash %#x, pinned %#x", sub.name, names[i], got, sub.want[i])
			}
		}
	}
}
