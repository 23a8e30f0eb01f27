package tree

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// TestPruneNeverDropsAWinner checks the uniform scan's bound on its own,
// where the differential oracle only sees its effect on whole trees: over
// random nodes (6-66 and 2 000-5 000 rows, MinLeaf 1-3, targets normal,
// large-mean with a tiny spread, whole, or log-normal, scaled by 1e-150 to
// 1e190), no cut that prunes at a threshold may have an exact gain, computed
// as scanLanes computes it, above that threshold. Each cut is tried at its
// own gain, one ulp below it, ×(1-1e-12), ×(1-1e-10) and a random multiple
// of it from 0 to 2. Removing pruneBelow's margin, or letting pruneSafe pass every tree,
// fails it.
func TestPruneNeverDropsAWinner(t *testing.T) {
	const nodes = 10000
	rng := stats.NewRNG(44)
	lmu, lr := make([]float64, 5000), make([]float64, 5000)
	y, ord := make([]float64, 5000), make([]int, 5000)
	var pairs, pruned, unsafe, violations int
	for node := 0; node < nodes; node++ {
		m := 6 + rng.Intn(61)
		if node%50 == 0 {
			m = 2000 + rng.Intn(3001)
		}
		minLeaf := 1 + rng.Intn(3)
		scale := math.Pow(10, -150+340*rng.Float64())
		if node%10 == 5 { // where prefix sums' squares start to overflow
			scale = math.Pow(10, 148+8*rng.Float64())
		}
		kind := rng.Intn(4)
		y := y[:m]
		for i := range y {
			switch kind {
			case 0:
				y[i] = rng.Normal(0, 1)
			case 1: // the parent dwarfs every gain
				y[i] = 1 + rng.Normal(0, 1e-7)
			case 2:
				y[i] = math.Round(rng.Normal(0, 10))
			case 3:
				y[i] = math.Exp(rng.Normal(0, 2))
			}
			y[i] *= scale
		}
		// The node total is summed in index order and the prefix sums in a
		// feature's order, as grow and scanLanes do.
		totWY := 0.0
		for _, v := range y {
			totWY += v
		}
		ord := ord[:m]
		for i := range ord {
			ord[i] = i
		}
		for i := m - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			ord[i], ord[j] = ord[j], ord[i]
		}
		safe := pruneSafe(y)
		if !safe {
			unsafe++
		}
		parent := totWY * totWY / float64(m)
		tableCuts(lmu, lr, m, minLeaf, totWY)
		leftWY := 0.0
		for _, i := range ord[:minLeaf-1] {
			leftWY += y[i]
		}
		for k := minLeaf - 1; k < m-minLeaf; k++ {
			leftWY += y[ord[k]]
			rightWY := totWY - leftWY
			gain := leftWY*leftWY/float64(k+1) + rightWY*rightWY/float64(m-k-1) - parent
			tb := k - minLeaf + 1
			for _, th := range [...]float64{
				gain,
				math.Nextafter(gain, math.Inf(-1)),
				gain * (1 - 1e-12),
				gain * (1 - 1e-10),
				gain * 2 * rng.Float64(),
			} {
				pairs++
				if !prunes(leftWY, lmu[tb], pruneBelow(th, parent, safe), lr[tb]) {
					continue
				}
				pruned++
				if gain > th {
					violations++
					if violations <= 5 {
						t.Errorf("node %d (m=%d MinLeaf=%d kind %d scale %.3g) cut %d: gain %g pruned at threshold %g",
							node, m, minLeaf, kind, scale, k, gain, th)
					}
				}
			}
		}
	}
	if violations > 0 {
		t.Errorf("%d of %d (cut, threshold) pairs pruned a cut that beats the threshold", violations, pairs)
	}
	// Not vacuous: the bound prunes, and the guard is met.
	if pruned < pairs/20 || unsafe == 0 {
		t.Errorf("%d of %d pairs pruned, %d nodes failed pruneSafe: the check has gone vacuous", pruned, pairs, unsafe)
	}
	t.Logf("%d pairs, %d pruned, %d of %d nodes not pruneSafe", pairs, pruned, unsafe, nodes)
}
