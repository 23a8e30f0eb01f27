// Package stats provides deterministic pseudo-random number generation,
// probability distributions, quantiles, histograms, and summary statistics
// used throughout the NURD reproduction.
//
// All randomness in the repository flows through stats.RNG so that every
// experiment is reproducible bit-for-bit given a seed. The generator is a
// 64-bit PCG-XSH-RR variant seeded via splitmix64, matching the structure of
// the generators recommended by O'Neill (2014).
package stats

import (
	"math"
	"slices"
)

// RNG is a deterministic pseudo-random number generator. The zero value is
// not valid; construct with NewRNG.
type RNG struct {
	state uint64
	inc   uint64

	// cached spare normal deviate for Box-Muller.
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator deterministically derived from seed. Two RNGs
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	// Small enough to inline, so a caller whose generator does not escape
	// (trace.Job.ObservedFeaturesInto draws one per observation) keeps it on
	// its stack.
	r := new(RNG)
	r.seed(seed)
	return r
}

func (r *RNG) seed(seed uint64) {
	r.state = splitmix64(seed)
	r.inc = splitmix64(r.state) | 1 // stream increment must be odd
	r.Uint64()                      // warm up so nearby seeds diverge immediately
}

// Split returns a new RNG whose stream is independent of (but
// deterministically derived from) the receiver. It advances the receiver.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 returns the next 64 bits from the stream.
func (r *RNG) Uint64() uint64 {
	// Two PCG-XSH-RR 32-bit outputs glued together would halve the period;
	// instead use a 64-bit xorshift-multiply output function over an LCG.
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	x := old ^ (old >> 33)
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Normal returns a normal deviate with the given mean and standard deviation
// using the Box-Muller transform with spare caching.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.StdNormal()
}

// StdNormal returns a standard normal deviate.
func (r *RNG) StdNormal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// LogNormal returns exp(N(mu, sigma)). mu and sigma are the parameters of
// the underlying normal, not the mean/std of the log-normal itself.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns an exponential deviate with the given rate (lambda).
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential requires rate > 0")
	}
	return -math.Log(1-r.Float64()) / rate
}

// Pareto returns a Pareto deviate with scale xm > 0 and shape alpha > 0.
// Heavier tails correspond to smaller alpha.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("stats: Pareto requires xm > 0 and alpha > 0")
	}
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// Gamma returns a gamma deviate with the given shape k and scale theta using
// the Marsaglia-Tsang method.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("stats: Gamma requires shape > 0 and scale > 0")
	}
	if shape < 1 {
		// Boost: Gamma(k) = Gamma(k+1) * U^(1/k)
		u := r.Float64()
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.StdNormal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes the slice in place (Fisher-Yates).
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) without
// replacement. It panics if k > n.
func (r *RNG) Sample(n, k int) []int {
	return slices.Clone(r.SampleInto(make([]int, n), k))
}

// SampleInto is Sample(len(idx), k) in a caller-owned buffer: it overwrites
// idx and returns its first k elements, consuming the same draws as Sample.
func (r *RNG) SampleInto(idx []int, k int) []int {
	n := len(idx)
	if k > n {
		panic("stats: Sample requires k <= n")
	}
	// Partial Fisher-Yates over an index array.
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
