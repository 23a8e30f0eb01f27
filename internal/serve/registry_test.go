package serve

import (
	"testing"

	"repro/internal/wire"
)

// TestShardRoutingDistribution pins the load-spreading property the Shards
// doc comment promises: over 10k job IDs — sequential (the common
// control-plane allocation pattern), strided, and bit-sparse — no shard
// receives more than twice the mean. A regression here (e.g. replacing
// mix64 with a plain modulo) would silently serialize neighboring jobs
// onto one shard.
func TestShardRoutingDistribution(t *testing.T) {
	const ids = 10_000
	populations := map[string]func(i uint64) uint64{
		"sequential": func(i uint64) uint64 { return i },
		"strided":    func(i uint64) uint64 { return i * 4096 },
		"high-bits":  func(i uint64) uint64 { return i << 40 },
	}
	for _, shards := range []int{4, 16, 64} {
		reg := NewServer(Config{Shards: shards}).reg
		for name, gen := range populations {
			counts := make(map[*shard]int, shards)
			for i := uint64(0); i < ids; i++ {
				counts[reg.shardFor(gen(i))]++
			}
			if len(counts) != shards {
				t.Errorf("%s/%d shards: only %d shards received jobs", name, shards, len(counts))
			}
			mean := float64(ids) / float64(shards)
			for _, c := range counts {
				if float64(c) > 2*mean {
					t.Errorf("%s/%d shards: a shard received %d jobs, >2x the mean %.0f", name, shards, c, mean)
				}
			}
		}
	}
}

// TestMix64Injectivity spot-checks that the splitmix64 finalizer does not
// collide over a contiguous ID range (it is a bijection on uint64; a typo
// in a constant would break this instantly).
func TestMix64Injectivity(t *testing.T) {
	seen := make(map[uint64]uint64, 10_000)
	for i := uint64(0); i < 10_000; i++ {
		h := wire.Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("mix64 collision: %d and %d both hash to %#x", prev, i, h)
		}
		seen[h] = i
	}
}
