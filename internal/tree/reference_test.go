package tree

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/stats"
)

// refFit is the sort-per-node Fit this package shipped before the presorted
// split finder, moved here verbatim (only Fit is renamed) as the oracle the
// presorted finder is compared against, node table for node table.
func refFit(X [][]float64, y []float64, w []float64, cfg Config) (*Regressor, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("tree: empty training set")
	}
	if len(y) != len(X) {
		return nil, fmt.Errorf("tree: %d targets for %d rows", len(y), len(X))
	}
	if w != nil && len(w) != len(X) {
		return nil, fmt.Errorf("tree: %d weights for %d rows", len(w), len(X))
	}
	ncols := len(X[0])
	for i, row := range X {
		if len(row) != ncols {
			return nil, fmt.Errorf("%w: row %d has %d columns, row 0 has %d", ErrRaggedRows, i, len(row), ncols)
		}
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	t := &Regressor{}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	b := &builder{X: X, y: y, w: w, cfg: cfg, tree: t}
	b.grow(idx, 0)
	return t, nil
}

type builder struct {
	X    [][]float64
	y    []float64
	w    []float64
	cfg  Config
	tree *Regressor
}

func (b *builder) weight(i int) float64 {
	if b.w == nil {
		return 1
	}
	return b.w[i]
}

// grow recursively builds the subtree over idx and returns its node index.
func (b *builder) grow(idx []int, depth int) int32 {
	sumW, sumWY := 0.0, 0.0
	for _, i := range idx {
		wi := b.weight(i)
		sumW += wi
		sumWY += wi * b.y[i]
	}
	mean := 0.0
	if sumW > 0 {
		mean = sumWY / sumW
	}
	id := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, node{feature: -1, value: mean})

	if depth >= b.cfg.MaxDepth || len(idx) < b.cfg.MinSplit {
		return id
	}
	feat, thr, ok := b.bestSplit(idx, sumW, sumWY)
	if !ok {
		return id
	}
	var left, right []int
	for _, i := range idx {
		if b.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		return id
	}
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	n := &b.tree.nodes[id]
	n.feature = feat
	n.threshold = thr
	n.left = l
	n.right = r
	return id
}

// bestSplit scans candidate features for the split minimizing weighted SSE.
func (b *builder) bestSplit(idx []int, totW, totWY float64) (feat int, thr float64, ok bool) {
	ncols := len(b.X[0])
	features := make([]int, ncols)
	for j := range features {
		features[j] = j
	}
	if b.cfg.FeatureFrac > 0 && b.cfg.FeatureFrac < 1 && b.cfg.RNG != nil {
		k := int(b.cfg.FeatureFrac*float64(ncols) + 0.5)
		if k < 1 {
			k = 1
		}
		features = b.cfg.RNG.Sample(ncols, k)
	}

	bestGain := 1e-12
	type pair struct {
		x, y, w float64
	}
	buf := make([]pair, len(idx))
	for _, j := range features {
		for k, i := range idx {
			buf[k] = pair{x: b.X[i][j], y: b.y[i], w: b.weight(i)}
		}
		sort.Slice(buf, func(a, c int) bool { return buf[a].x < buf[c].x })
		// Prefix sums over the sorted order.
		leftW, leftWY := 0.0, 0.0
		for k := 0; k < len(buf)-1; k++ {
			leftW += buf[k].w
			leftWY += buf[k].w * buf[k].y
			if buf[k].x == buf[k+1].x {
				continue
			}
			if k+1 < b.cfg.MinLeaf || len(buf)-k-1 < b.cfg.MinLeaf {
				continue
			}
			rightW := totW - leftW
			rightWY := totWY - leftWY
			if leftW <= 0 || rightW <= 0 {
				continue
			}
			// Gain = sum(w y)^2/W reduction relative to parent.
			gain := leftWY*leftWY/leftW + rightWY*rightWY/rightW - totWY*totWY/totW
			if gain > bestGain {
				bestGain = gain
				feat = j
				thr = (buf[k].x + buf[k+1].x) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// diffCase draws one seeded training problem for the differential test:
// continuous columns, columns quantised to 3/10/100 levels (ties inside
// every node), constant and duplicated columns, nil and non-nil weights,
// and growth limits from "split everything" to "can never split".
//
// A copied column is copied whole. Two different columns that cut a node
// into the same two row sets, with different ties below the cut, have gains
// equal in exact arithmetic; the reference's unstable sort.Slice and the
// presorted row order add the tied rows up in different orders, so which
// column wins is rounding noise on both sides and cannot be compared. A
// whole copy ties bit for bit instead, and pins "the first feature wins".
func diffCase(seed uint64) (X [][]float64, y, w []float64, cfg Config) {
	return diffCaseRows(seed, 0)
}

// diffCaseRows is diffCase with n rows in place of the drawn count when n >
// 0. The count is drawn either way, so the rest of the stream is the same.
func diffCaseRows(seed uint64, n int) (X [][]float64, y, w []float64, cfg Config) {
	rng := stats.NewRNG(seed)
	if drawn := 2 + rng.Intn(260); n <= 0 {
		n = drawn
	}
	d := 1 + rng.Intn(8)
	kinds, src := make([]int, d), make([]int, d)
	for j := range kinds {
		kinds[j], src[j] = rng.Intn(7), rng.Intn(j+1)
	}
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			switch kinds[j] {
			case 0, 1:
				row[j] = rng.Normal(0, float64(1+j))
			case 2:
				row[j] = math.Floor(rng.Float64() * 3)
			case 3:
				row[j] = math.Floor(rng.Float64()*10) / 10
			case 4:
				row[j] = math.Floor(rng.Float64()*100) / 7
			case 5:
				row[j] = 1.5
			case 6:
				row[j] = row[src[j]] // a copy of an earlier column (of itself: all zero)
			}
		}
		X[i] = row
		y[i] = 2*row[0] - row[d-1] + rng.Normal(0, 0.5)
	}
	if seed%4 == 0 { // whole-number targets: prefix sums are exact, gains tie exactly
		for i := range y {
			y[i] = math.Round(y[i])
		}
	}
	if seed%2 == 1 {
		w = make([]float64, n)
		for i := range w {
			w[i] = rng.Float64() * 3
			if rng.Bernoulli(0.05) {
				w[i] = 0
			}
		}
	}
	cfg = Config{
		MaxDepth: rng.Intn(7), // 0 normalizes to the default
		MinLeaf:  []int{0, 1, 2, 5, n / 2, n}[rng.Intn(6)],
		MinSplit: []int{0, 2, 10, n, n + 1}[rng.Intn(5)],
	}
	if seed%3 == 0 {
		cfg.FeatureFrac = []float64{0.3, 0.5, 0.9, 1}[rng.Intn(4)]
	}
	return X, y, w, cfg
}

// TestFitMatchesSortPerNodeReference is the differential oracle: over seeded
// matrices the presorted finder must grow the reference's tree node for node
// (same features, thresholds, values and child indices), and with feature
// subsampling must consume the same RNG draws in the same order.
func TestFitMatchesSortPerNodeReference(t *testing.T) {
	const cases = 600
	split := 0
	for seed := uint64(1); seed <= cases; seed++ {
		X, y, w, cfg := diffCase(seed)
		refCfg, gotCfg := cfg, cfg
		if cfg.FeatureFrac > 0 {
			refCfg.RNG, gotCfg.RNG = stats.NewRNG(seed), stats.NewRNG(seed)
		}
		want, err := refFit(X, y, w, refCfg)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		got, err := Fit(X, y, w, gotCfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d (n=%d d=%d cfg=%+v): trees differ\nreference %+v\npresorted %+v",
				seed, len(X), len(X[0]), cfg, want.nodes, got.nodes)
		}
		if cfg.FeatureFrac > 0 && refCfg.RNG.Uint64() != gotCfg.RNG.Uint64() {
			t.Errorf("seed %d: feature subsampling consumed different RNG draws", seed)
		}
		if want.NumNodes() > 1 {
			split++
		}
	}
	if split < 300 {
		t.Errorf("only %d of %d cases grew a split: the comparison has gone vacuous", split, cases)
	}

	// The uniform scan's lane edge cases (laneCase), at MinLeaf 1-4.
	const laneCases = 360
	split, tied := 0, 0
	for seed := uint64(1); seed <= laneCases; seed++ {
		minLeaf := 1 + int(seed%4)
		X, refX, y, copies := laneCase(seed, minLeaf)
		cfg := Config{MaxDepth: 1 + int(seed%5), MinLeaf: minLeaf}
		want, err := refFit(refX, y, nil, cfg)
		if err != nil {
			t.Fatalf("lane seed %d: reference: %v", seed, err)
		}
		got, err := Fit(X, y, nil, cfg)
		if err != nil {
			t.Fatalf("lane seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(nodeBits(want), nodeBits(got)) {
			t.Errorf("lane seed %d (n=%d d=%d MinLeaf=%d): trees differ\nreference %+v\npresorted %+v",
				seed, len(X), len(X[0]), minLeaf, want.nodes, got.nodes)
		}
		if want.NumNodes() > 1 {
			split++
		}
		if copies[got.nodes[0].feature] {
			tied++
		}
	}
	if split < laneCases/2 || tied < laneCases/4 {
		t.Errorf("%d of %d lane cases grew a split, %d split the root on a column with a later copy: the comparison has gone vacuous",
			split, laneCases, tied)
	}
	t.Logf("lane cases: %d of %d split, %d at the root on a column with a later copy", split, laneCases, tied)
}

// laneCase draws a matrix for the four-lane uniform scan's edge cases, and
// the same matrix for the reference, unweighted targets, and which columns a
// later column copies:
//   - widths 1-9, so every group size, its padded lanes included;
//   - columns that copy an earlier one, in their own lane group or an earlier
//     group, whole or negated. A copy ties its original bit for bit at the
//     same cut, a negated copy (with whole-number targets, whose sums are
//     exact) at the mirrored cut, which a later lane can reach first; the
//     targets follow one copied column, so the ties decide splits and the
//     earlier feature must win them;
//   - whole-number targets, normal ones, and whole ones scaled past
//     pruneSafe's 1e150, where the lanes prune nothing;
//   - when minLeaf > 1, up to minLeaf-1 NaN, +Inf and -Inf cells per column.
//     The reference's sort has no place for NaN, so refX holds +Inf there:
//     both sort it after every finite value, send it right, and with fewer
//     such cells than minLeaf at either end no admissible cut touches them.
func laneCase(seed uint64, minLeaf int) (X, refX [][]float64, y []float64, copies []bool) {
	rng := stats.NewRNG(seed ^ 0x1a4e)
	n, d := 8+rng.Intn(120), 1+int(seed%9)
	kind := int(seed/9) % 3 // targets: whole, normal, whole past pruneSafe
	src, sign := make([]int, d), make([]float64, d)
	copies = make([]bool, d)
	for j := range src {
		src[j], sign[j] = j, 1
		if j > 0 && rng.Bernoulli(0.6) {
			src[j] = rng.Intn(j)
			for src[src[j]] != src[j] { // copy the original, not a copy
				src[j] = src[src[j]]
			}
			copies[src[j]] = true
			if kind == 0 && rng.Bernoulli(0.5) {
				sign[j] = -1
			}
		}
	}
	follow := rng.Intn(d) // the column the targets follow
	follow = src[follow]
	X, refX, y = make([][]float64, n), make([][]float64, n), make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			if src[j] == j {
				X[i][j] = rng.Normal(0, float64(1+j))
			}
		}
	}
	for j := 0; j < d && minLeaf > 1; j++ {
		if src[j] != j {
			continue
		}
		for k := rng.Intn(minLeaf); k > 0; k-- {
			X[rng.Intn(n)][j] = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
	}
	for i, row := range X {
		for j := range row {
			row[j] = sign[j] * row[src[j]]
		}
		refX[i] = make([]float64, d)
		for j, v := range row {
			if v != v {
				v = math.Inf(1)
			}
			refX[i][j] = v
		}
		v := row[follow]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		y[i] = math.Round(3*v + rng.Normal(0, 1))
		switch kind {
		case 1:
			y[i] = 3*v + rng.Normal(0, 1)
		case 2:
			y[i] *= 1e151
		}
	}
	return X, refX, y, copies
}

// TestGrowMatchesReferenceAtExtremeTargets runs the differential oracle
// where the uniform scan's bound is nearest to being wrong: targets whose
// squared prefix sums underflow or overflow (alone, or beside ordinary ones),
// Σ|y| on either side of pruneSafe's 1e150, whole-number targets whose gains
// tie exactly, a parent that dwarfs every gain, a NaN or infinite target, a
// 4 096-row node (the bound's error grows with √(L/R)), and MinLeaf from 1
// to half the rows.
func TestGrowMatchesReferenceAtExtremeTargets(t *testing.T) {
	scale := func(s float64) func([]float64) {
		return func(y []float64) {
			for i := range y {
				y[i] *= s
			}
		}
	}
	sumTo := func(s float64) func([]float64) { // Σ|y| = s, to rounding
		return func(y []float64) {
			sum := 0.0
			for _, v := range y {
				sum += math.Abs(v)
			}
			scale(s / sum)(y)
		}
	}
	for _, tc := range []struct {
		name  string
		apply func(y []float64)
		split bool // whether some tree must split, so the case is not vacuous
	}{
		{"1e-150", scale(1e-150), false},
		{"1e-160", scale(1e-160), false},
		{"1e150", scale(1e150), true},
		{"1e153", scale(1e153), true}, // the longer prefix sums' squares overflow
		{"1e155", scale(1e155), false},
		{"centred 1e155", func(y []float64) { // a finite parent beside +Inf gains
			mean := 0.0
			for _, v := range y {
				mean += v / float64(len(y))
			}
			for i := range y {
				y[i] = (y[i] - mean) * 1e155
			}
		}, true},
		{"whole", func(y []float64) {
			for i := range y {
				y[i] = math.Round(y[i])
			}
		}, true},
		{"negatives 1e-160", func(y []float64) { // subnormal squares beside normal ones
			for i := range y {
				if y[i] < 0 {
					y[i] *= 1e-160
				}
			}
		}, true},
		{"NaN", func(y []float64) { y[len(y)/3] = math.NaN() }, false},
		{"+Inf", func(y []float64) { y[len(y)/2] = math.Inf(1) }, false},
		{"-Inf", func(y []float64) { y[0] = math.Inf(-1) }, false},
		{"sum|y| just below 1e150", sumTo(0.999e150), true},
		{"sum|y| just above 1e150", sumTo(1.001e150), true},
		{"offset 1e8", func(y []float64) { // quantised, so that every prefix sum is exact in any order
			for i := range y {
				y[i] = math.Round(y[i]*1024)/1024 + 1e8
			}
		}, true},
		{"4096 rows", nil, true}, // diffCase's own targets, five seeds
	} {
		split, rows, seeds := 0, 0, uint64(40)
		if tc.apply == nil {
			rows, seeds = 4096, 5
		}
		for seed := uint64(1); seed <= seeds; seed++ {
			X, y, _, _ := diffCaseRows(seed, rows)
			if tc.apply != nil {
				tc.apply(y)
			}
			n := len(X)
			for _, minLeaf := range []int{1, 3, n / 2} {
				cfg := Config{MaxDepth: 4, MinLeaf: minLeaf}
				want, err := refFit(X, y, nil, cfg)
				if err != nil {
					t.Fatalf("%s seed %d: reference: %v", tc.name, seed, err)
				}
				got, err := Fit(X, y, nil, cfg)
				if err != nil {
					t.Fatalf("%s seed %d: %v", tc.name, seed, err)
				}
				if !reflect.DeepEqual(nodeBits(want), nodeBits(got)) {
					t.Errorf("%s seed %d (n=%d MinLeaf=%d): trees differ\nreference %+v\npresorted %+v",
						tc.name, seed, n, minLeaf, want.nodes, got.nodes)
				}
				if want.NumNodes() > 1 {
					split++
				}
			}
		}
		if tc.split && split == 0 {
			t.Errorf("%s: no case grew a split: the comparison has gone vacuous", tc.name)
		}
		t.Logf("%s: %d of %d trees split", tc.name, split, 3*seeds)
	}

	// The lane scan's edge cases (laneCase: widths 1-9, ties within and across
	// lane groups) with its targets as drawn and scaled so that the longer
	// prefix sums' squares overflow; without NaN or ±Inf cells, so that
	// MinLeaf 1 keeps the reference exact.
	for _, s := range []float64{1, 1e153} {
		split := 0
		for seed := uint64(1); seed <= 90; seed++ {
			X, _, y, _ := laneCase(seed, 1)
			scale(s)(y)
			for _, minLeaf := range []int{1, 2, 3, 4, len(X) / 2} {
				cfg := Config{MaxDepth: 4, MinLeaf: minLeaf}
				want, err := refFit(X, y, nil, cfg)
				if err != nil {
					t.Fatalf("lanes ×%g seed %d: reference: %v", s, seed, err)
				}
				got, err := Fit(X, y, nil, cfg)
				if err != nil {
					t.Fatalf("lanes ×%g seed %d: %v", s, seed, err)
				}
				if !reflect.DeepEqual(nodeBits(want), nodeBits(got)) {
					t.Errorf("lanes ×%g seed %d (n=%d d=%d MinLeaf=%d): trees differ\nreference %+v\npresorted %+v",
						s, seed, len(X), len(X[0]), minLeaf, want.nodes, got.nodes)
				}
				if want.NumNodes() > 1 {
					split++
				}
			}
		}
		if split == 0 {
			t.Errorf("lanes ×%g: no case grew a split: the comparison has gone vacuous", s)
		}
		t.Logf("lanes ×%g: %d of %d trees split", s, split, 5*90)
	}
}

// nodeBits is t's node table with every float as its bits, so that two
// tables with NaN leaf values compare equal under reflect.DeepEqual.
func nodeBits(t *Regressor) [][5]uint64 {
	out := make([][5]uint64, len(t.nodes))
	for i, nd := range t.nodes {
		out[i] = [5]uint64{uint64(nd.feature), math.Float64bits(nd.threshold), math.Float64bits(nd.value), uint64(nd.left), uint64(nd.right)}
	}
	return out
}
