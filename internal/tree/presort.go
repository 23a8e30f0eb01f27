package tree

import (
	"fmt"
	"math"
	"slices"
)

// Presorted is a training matrix prepared for exact greedy split finding: a
// column-major copy plus, per feature, the row order ascending by value.
// Sorting happens here, once; growing a tree never sorts. A node is a
// contiguous range [lo,hi) shared by the index-order list and every
// feature-order list, finding its best split is one linear prefix-sum scan
// of that range per feature, and splitting it is a stable partition of each
// list, which keeps both halves in order for the children.
//
// With uniform weights (gbt's case) the scan prunes a candidate by the
// between-group form of its gain. A side's weight is its row count, so a cut
// of an m-row node that puts L rows left with prefix sum S, and R = m-L right,
// gains (S - L·T/m)²·m/(L·R) for node total T. bestSplit tables L·T/m and
// L·R/m once per node for all its features; a candidate then costs a
// subtraction, two multiplies and one compare against the running best,
// lowered by more than the rounding error of either side. The rest get the exact gain,
// so the trees are those of dividing at every candidate: the first in scan
// order with the largest gain.
//
// The order is total: ascending by value, NaN after +Inf, ties (and NaNs)
// by row index. A threshold is the midpoint of two neighbouring values and
// is only placed where that midpoint is finite, so never next to a NaN or
// an infinity; growth and Predict both send a NaN cell right (x <= threshold
// is false), +Inf right and -Inf left. A matrix with NaN or ±Inf cells
// therefore fits deterministically, and every threshold of a fitted tree is
// finite (gbt.Flat's arithmetic child select relies on that).
//
// The targets and weights are arguments of Grow, so boosting rounds — which
// change only the targets — share one Presorted. Grow reuses the value's
// working buffers: a Presorted must not be used from two goroutines at once.
type Presorted struct {
	n, d  int
	cols  []float64 // column-major: cols[j*n+i] = X[i][j]
	order []int32   // order[j*n:(j+1)*n]: rows ascending by feature j

	// Working state of the tree being grown.
	lists   []int32 // a copy of order, then the index-order list; permuted by splits
	scratch []int32 // right-hand rows of the list being partitioned
	left    []uint8 // per row: 1 if it goes left at the split being applied
	leaves  []int32 // per row: ordinal of the leaf it ended in
	nodes   []node
	feats   []int     // candidate features of the node being split
	lmu, lr []float64 // per cut of the node being split: L·T/m and L·R/m
	prune   bool      // the uniform scan may prune: see pruneSafe
	nleaves int32

	keys []uint64 // sortRows' merge space
	rows []int32

	y, w []float64
	cfg  Config
}

// Presort copies X column-major and sorts each feature's rows. It returns
// an error for an empty matrix and ErrRaggedRows when rows differ in width.
func Presort(X [][]float64) (*Presorted, error) {
	p := &Presorted{}
	if err := p.Reset(X); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset makes p the presorted form of X, as Presort does, in p's own buffers:
// it allocates only where X is larger than every matrix p held before, so a
// caller that fits matrix after matrix (gbt's pooled fit scratch) reuses one
// value. The zero Presorted is ready to Reset.
func (p *Presorted) Reset(X [][]float64) error {
	if len(X) == 0 {
		return fmt.Errorf("tree: empty training set")
	}
	n, d := len(X), len(X[0])
	for i, row := range X {
		if len(row) != d {
			return fmt.Errorf("%w: row %d has %d columns, row 0 has %d", ErrRaggedRows, i, len(row), d)
		}
	}
	p.n, p.d = n, d
	p.cols, p.order = resize(p.cols, d*n), resize(p.order, d*n)
	p.lists, p.scratch = resize(p.lists, (d+1)*n), resize(p.scratch, n)
	p.left, p.leaves = resize(p.left, n), resize(p.leaves, n)
	p.feats = resize(p.feats, d)
	p.lmu, p.lr = resize(p.lmu, n), resize(p.lr, n) // a node offers at most n-1 cuts
	p.keys, p.rows = resize(p.keys, 2*n), resize(p.rows, 2*n)
	for i, row := range X {
		for j, v := range row {
			p.cols[j*n+i] = v
		}
	}
	for j := 0; j < d; j++ {
		sortRows(p.cols[j*n:(j+1)*n], p.order[j*n:(j+1)*n], p.keys, p.rows)
	}
	return nil
}

// resize returns buf with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// sortRows fills ord with the rows of col in the order Presorted documents:
// a stable merge sort of the rows holding numbers, which leaves ties in row
// order, then the NaN rows. keys and rows are merge space, twice as long as
// col. On a small matrix this sort is most of a single tree's fit and the
// time goes to mispredicted comparisons, so it is written out: floats become
// integer keys of the same order (-0 and +0 the same key), and the merge
// picks its element with a mask, not a branch.
func sortRows(col []float64, ord []int32, keys []uint64, rows []int32) {
	n := 0
	for i, v := range col {
		if v == v {
			k := math.Float64bits(v + 0) // -0 + 0 is +0
			if k>>63 != 0 {
				k = ^k
			} else {
				k |= 1 << 63
			}
			keys[n], rows[n] = k, int32(i)
			n++
		}
	}
	nan := n
	for i, v := range col {
		if v != v {
			ord[nan] = int32(i)
			nan++
		}
	}
	sk, sr := keys[:n], rows[:n]
	dk, dr := keys[len(col):len(col)+n], rows[len(col):len(col)+n]
	const run = 8 // insertion-sorted runs, then merged pairwise
	for lo := 0; lo < n; lo += run {
		for i := lo + 1; i < min(lo+run, n); i++ {
			k, r, at := sk[i], sr[i], i
			for ; at > lo && sk[at-1] > k; at-- {
				sk[at], sr[at] = sk[at-1], sr[at-1]
			}
			sk[at], sr[at] = k, r
		}
	}
	for width := run; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			a, b, at := lo, mid, lo
			for a < mid && b < hi {
				ka, kb, ra, rb := sk[a], sk[b], sr[a], sr[b]
				takeA := 0
				if ka <= kb {
					takeA = 1
				}
				mask := uint64(-int64(takeA))
				dk[at] = kb ^ (ka^kb)&mask
				dr[at] = rb ^ (ra^rb)&int32(mask)
				at++
				a += takeA
				b += 1 - takeA
			}
			for ; a < mid; a, at = a+1, at+1 {
				dk[at], dr[at] = sk[a], sr[a]
			}
			for ; b < hi; b, at = b+1, at+1 {
				dk[at], dr[at] = sk[b], sr[b]
			}
		}
		sk, dk, sr, dr = dk, sk, dr, sr
	}
	copy(ord, sr)
}

// Grow grows a regression tree on the presorted matrix with targets y and
// optional per-row weights w (nil for uniform). It returns ErrBadConfig
// when cfg cannot drive growth.
func (p *Presorted) Grow(y, w []float64, cfg Config) (*Regressor, error) {
	if len(y) != p.n {
		return nil, fmt.Errorf("tree: %d targets for %d rows", len(y), p.n)
	}
	if w != nil && len(w) != p.n {
		return nil, fmt.Errorf("tree: %d weights for %d rows", len(w), p.n)
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	p.y, p.w, p.cfg = y, w, cfg
	p.prune = w == nil && pruneSafe(y)
	// A tree has at most 2n-1 nodes (every leaf holds a row) and at most
	// 2^(MaxDepth+1)-1; sizing the table for that keeps a fit's allocation
	// count independent of how many nodes its trees grow.
	most := 2*p.n - 1
	if cfg.MaxDepth < 30 && 1<<(cfg.MaxDepth+1)-1 < most {
		most = 1<<(cfg.MaxDepth+1) - 1
	}
	if cap(p.nodes) < most {
		p.nodes = make([]node, 0, most)
	}
	p.nodes, p.nleaves = p.nodes[:0], 0
	idx := p.lists[p.d*p.n:]
	copy(p.lists, p.order)
	for i := range idx {
		idx[i] = int32(i)
	}
	for j := range p.feats {
		p.feats[j] = j
	}
	p.grow(0, p.n, 0)
	return &Regressor{nodes: slices.Clone(p.nodes)}, nil
}

// Leaves returns, for each training row, the ordinal (as AdjustLeaves
// counts leaves) of the leaf the last Grow put it in. The slice is
// overwritten by the next Grow.
func (p *Presorted) Leaves() []int32 { return p.leaves }

// grow builds the subtree over rows [lo,hi) of every list and returns its
// node index. Nodes are numbered in preorder, leaves in the order they close.
func (p *Presorted) grow(lo, hi, depth int) int32 {
	idx := p.lists[p.d*p.n+lo : p.d*p.n+hi]
	sumW, sumWY := 0.0, 0.0
	if p.w == nil {
		sumW = float64(len(idx))
		for _, i := range idx {
			sumWY += p.y[i]
		}
	} else {
		for _, i := range idx {
			sumW += p.w[i]
			sumWY += p.w[i] * p.y[i]
		}
	}
	mean := 0.0
	if sumW > 0 {
		mean = sumWY / sumW
	}
	id := int32(len(p.nodes))
	p.nodes = append(p.nodes, node{feature: -1, value: mean})

	nl := 0
	feat, thr, ok := 0, 0.0, false
	if depth < p.cfg.MaxDepth && len(idx) >= p.cfg.MinSplit {
		feat, thr, ok = p.bestSplit(lo, hi, sumW, sumWY)
	}
	if ok {
		col := p.cols[feat*p.n : (feat+1)*p.n]
		for _, i := range idx {
			l := uint8(0)
			if col[i] <= thr {
				l = 1
			}
			p.left[i] = l
			nl += int(l)
		}
		// The midpoint of two adjacent floats can round onto the upper one,
		// so the sides are counted by the comparison Predict will make.
		ok = nl >= p.cfg.MinLeaf && len(idx)-nl >= p.cfg.MinLeaf
	}
	if !ok {
		for _, i := range idx {
			p.leaves[i] = p.nleaves
		}
		p.nleaves++
		return id
	}

	// Children that cannot split need only their index-order list.
	if depth+1 < p.cfg.MaxDepth && (nl >= p.cfg.MinSplit || len(idx)-nl >= p.cfg.MinSplit) {
		for j := 0; j < p.d; j++ {
			p.partition(p.lists[j*p.n+lo : j*p.n+hi])
		}
	}
	p.partition(idx)
	l := p.grow(lo, lo+nl, depth+1)
	r := p.grow(lo+nl, hi, depth+1)
	nd := &p.nodes[id]
	nd.feature, nd.threshold, nd.left, nd.right = feat, thr, l, r
	return id
}

// partition moves the rows marked left to the front of list, keeping the
// order within each side. Which side a row takes is a coin toss to the branch
// predictor, so every row is stored to both sides and only the side it
// belongs to advances (the left cursor never passes the read position).
//
// It is kept out of line: inlined into grow, whose recursion keeps many
// values live, the loop's cursors were spilled to the stack and reloaded on
// every row.
//
//go:noinline
func (p *Presorted) partition(list []int32) {
	// Locals, or the stores through list make the compiler reload both
	// fields on every row.
	left, scratch := p.left, p.scratch
	nl, nr := 0, 0
	for _, i := range list {
		l := int(left[i])
		list[nl] = i
		scratch[nr] = i
		nl += l
		nr += 1 - l
	}
	copy(list[nl:], scratch[:nr])
}

// bestSplit scans candidate features for the split of rows [lo,hi)
// minimizing weighted SSE.
func (p *Presorted) bestSplit(lo, hi int, totW, totWY float64) (feat int, thr float64, ok bool) {
	features := p.feats
	if p.cfg.FeatureFrac > 0 && p.cfg.FeatureFrac < 1 { // normalize checked the RNG
		k := int(p.cfg.FeatureFrac*float64(p.d) + 0.5)
		if k < 1 {
			k = 1
		}
		features = p.cfg.RNG.SampleInto(p.feats, k)
	}

	b := best{gain: 1e-12}
	parent := totWY * totWY / totW
	if p.w != nil {
		for _, j := range features {
			p.scanWeighted(&b, j, p.cols[j*p.n:(j+1)*p.n], p.lists[j*p.n+lo:j*p.n+hi], totW, totWY, parent)
		}
		return b.feat, b.thr, b.ok
	}
	tableCuts(p.lmu, p.lr, hi-lo, p.cfg.MinLeaf, totWY)
	for g := 0; g < len(features); g += lanes {
		p.scanLanes(&b, features[g:min(g+lanes, len(features))], lo, hi, totWY, parent)
	}
	return b.feat, b.thr, b.ok
}

// best is the running winner of a split search: the first candidate in scan
// order with the largest gain, where a gain must exceed 1e-12 to count.
type best struct {
	gain float64
	feat int
	thr  float64
	ok   bool
}

// lanes is how many features the uniform scan walks at once.
const lanes = 4

// scanLanes scans the orders of one to four features js of a node with unit
// weights, in lockstep: cut k puts exactly the k+1 rows ord[:k+1] of a
// feature's order left and m-k-1 right. MinLeaf admits the cuts minLeaf-1 ..
// m-minLeaf-1; grow calls this only when m ≥ MinSplit ≥ 2·MinLeaf, so there
// is at least one. Cut k is entry t = k-minLeaf+1 of the node's tables
// (tableCuts), which the features share.
//
// Each lane's prefix sum is a chain of adds of its own, so four chains
// overlap where one feature's scan waits on its single chain, and one table
// load and one c·lr product serve four bound tests. A group of fewer than four
// features repeats its last one; the copies prune exactly as it does and are
// never scored. Each lane keeps its own first candidate with the largest gain
// (strict >), and the lanes are then reduced into b in feature order (strict
// >), so the winner is the sequential scan's: the first in scan order with the
// largest gain. The bound's threshold is the best over every lane, which is
// sound for all of them: a cut it prunes is below a gain some candidate has,
// so it is below the winner's.
func (p *Presorted) scanLanes(b *best, js []int, lo, hi int, totWY, parent float64) {
	var ls [lanes]struct {
		col  []float64
		ord  []int32
		best best
	}
	for l := range ls {
		j := js[min(l, len(js)-1)]
		ls[l].col, ls[l].ord = p.cols[j*p.n:(j+1)*p.n], p.lists[j*p.n+lo:j*p.n+hi]
		ls[l].best = best{gain: b.gain}
	}
	y := p.y
	m, minLeaf := hi-lo, p.cfg.MinLeaf
	var s0, s1, s2, s3 float64
	for k := 0; k < minLeaf-1; k++ {
		s0 += y[ls[0].ord[k]]
		s1 += y[ls[1].ord[k]]
		s2 += y[ls[2].ord[k]]
		s3 += y[ls[3].ord[k]]
	}
	n := m - 2*minLeaf + 1
	c0, c1 := ls[0].ord[minLeaf-1:][:n], ls[1].ord[minLeaf-1:][:n]
	c2, c3 := ls[2].ord[minLeaf-1:][:n], ls[3].ord[minLeaf-1:][:n]
	lmu, lr := p.lmu[:n], p.lr[:n]
	top := b.gain
	c := pruneBelow(top, parent, p.prune)
	for t := 0; t < n; t++ {
		// Advance to the next cut the bound cannot rule out in every lane, in
		// a loop of its own: kept apart from the exact path below, it runs
		// faster (BenchmarkGrow). A uint32 index loads without a separate
		// sign extension.
		for ; t < n; t++ {
			s0 += y[uint32(c0[t])]
			s1 += y[uint32(c1[t])]
			s2 += y[uint32(c2[t])]
			s3 += y[uint32(c3[t])]
			u, cl := lmu[t], c*lr[t]
			d0, d1, d2, d3 := u-s0, u-s1, u-s2, u-s3
			if !(d0*d0 < cl && d1*d1 < cl && d2*d2 < cl && d3*d3 < cl) {
				break
			}
		}
		if t == n {
			break
		}
		k := minLeaf - 1 + t
		sums := [lanes]float64{s0, s1, s2, s3}
		for l := range js {
			ln, s := &ls[l], sums[l]
			if prunes(s, lmu[t], c, lr[t]) {
				continue
			}
			x, next := ln.col[ln.ord[k]], ln.col[ln.ord[k+1]]
			if x == next {
				continue
			}
			// Gain = sum(w y)^2/W reduction relative to parent.
			rightWY := totWY - s
			gain := s*s/float64(k+1) + rightWY*rightWY/float64(m-k-1) - parent
			if gain > ln.best.gain {
				mid := (x + next) / 2
				if math.IsNaN(mid) || math.IsInf(mid, 0) {
					continue // a NaN or infinite neighbour, or a sum that overflows
				}
				ln.best = best{gain: gain, feat: js[l], thr: mid, ok: true}
				if gain > top {
					top = gain
					c = pruneBelow(top, parent, p.prune)
				}
			}
		}
	}
	for l := range js {
		if ls[l].best.gain > b.gain {
			*b = ls[l].best
		}
	}
}

// The uniform scan's bound. Write S and T for a cut's prefix sum and its
// node's total as the scan holds them, L and R = m-L for the sides' row
// counts, P = T²/m, and G = S²/L + (T-S)²/R - P, exactly; then G =
// D²·m/(L·R) with D = S - L·T/m. A candidate wins only if its computed gain
// g exceeds the running best B (B ≥ 1e-12). Let u = 2^-53.
//   - g rounds S² and (T-S)² before dividing, sums and subtracts the parent:
//     it is within about 8u·(P+G) of G.
//   - prunes computes D with lmu = L·T/m (two roundings, each relative to
//     L·|T|/m) and squares it; against lr = L·R/m (three roundings) the
//     difference from G is within about 3u·G + 2u·√(L/R)·(G+P), since
//     |D|·|T|/R = √(G·P)·√(L/R).
//   - pruneBelow sets c = B·(1-1e-9) - 1e-9·P. For m < 2^31, √(L/R) < 2^15.5,
//     so both errors together stay below 1e-11·(B+P) near G ≈ B, well inside
//     the margin: a pruned candidate has G < B - 8u·(P+G), so g ≤ B and it
//     loses. A negative c prunes nothing.
//   - Subnormal results err by about 1e-323 absolutely, nothing beside a
//     margin of at least 1e-9·B·lr ≥ 5e-22.
//   - Overflow would break the argument: with huge targets c·lr can round
//     to +Inf and prune a cut whose gain is +Inf too. pruneSafe bounds the
//     targets so that D² and the exact terms stay finite; a node's sums are
//     never larger than the tree's, so one pass per Grow suffices. A tree
//     that fails it scans with c = 0, which prunes nothing: d² < 0 is false.

// pruneSafe reports whether Σ|y| is below 1e150 (a NaN or ±Inf target is
// not): then every prefix sum, D and L·T/m is below 2e150 in magnitude and
// their squares are finite.
func pruneSafe(y []float64) bool {
	s := 0.0
	for _, v := range y {
		s += math.Abs(v)
	}
	return s < 1e150
}

// tableCuts fills lmu[t] = L·(T/m) and lr[t] = L·R·(1/m) for the cuts of an
// m-row node with target total T, cut t putting L = minLeaf+t rows left and R
// = m-L right. It multiplies by 1/m rather than divide per cut.
func tableCuts(lmu, lr []float64, m, minLeaf int, T float64) {
	mf := float64(m)
	mu, invM := T/mf, 1/mf
	lmu, lr = lmu[:m-2*minLeaf+1], lr[:m-2*minLeaf+1]
	for t := range lmu {
		l := float64(minLeaf + t)
		lmu[t] = l * mu
		lr[t] = l * (mf - l) * invM
	}
}

// pruneBelow is the threshold c under which a candidate's between-group sum
// of squares proves that it cannot beat best; 0, which prunes nothing, when
// the tree is not pruneSafe.
func pruneBelow(best, parent float64, safe bool) float64 {
	if !safe {
		return 0
	}
	const margin = 1e-9
	return best*(1-margin) - margin*parent
}

// prunes reports whether the cut with prefix sum s and tables lmu, lr cannot
// beat the best behind threshold c. D's sign does not matter; taking lmu - s
// leaves s in its register, where s - lmu cost the scan two moves per cut.
func prunes(s, lmu, c, lr float64) bool {
	d := lmu - s
	return d*d < c*lr
}

// scanWeighted scans one feature's order of a node with per-row weights.
func (p *Presorted) scanWeighted(b *best, j int, col []float64, ord []int32, totW, totWY, parent float64) {
	y, w := p.y, p.w
	m, minLeaf := len(ord), p.cfg.MinLeaf
	// Prefix sums over the sorted order.
	leftW, leftWY := 0.0, 0.0
	next := col[ord[0]]
	for k := 0; k < m-1; k++ {
		i := ord[k]
		leftW += w[i]
		leftWY += w[i] * y[i]
		x := next
		next = col[ord[k+1]]
		if x == next {
			continue
		}
		if k+1 < minLeaf || m-k-1 < minLeaf {
			continue
		}
		rightW := totW - leftW
		rightWY := totWY - leftWY
		if leftW <= 0 || rightW <= 0 {
			continue
		}
		// Gain = sum(w y)^2/W reduction relative to parent.
		gain := leftWY*leftWY/leftW + rightWY*rightWY/rightW - parent
		if gain > b.gain {
			mid := (x + next) / 2
			if math.IsNaN(mid) || math.IsInf(mid, 0) {
				continue // a NaN or infinite neighbour, or a sum that overflows
			}
			*b = best{gain: gain, feat: j, thr: mid, ok: true}
		}
	}
}
