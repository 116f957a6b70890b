package icache_test

import (
	"testing"

	"acic/internal/core"
	"acic/internal/experiments"
	"acic/internal/icache"
	"acic/internal/policy"
	"acic/internal/workload"
)

// BenchmarkACICFetch replays one workload's block-access sequence through
// Complex.Fetch, one fetch per op with the cycle advancing by one per
// fetch: an LRU complex, then ACIC in every Fig 15 sensitivity geometry.
// The ACIC cost per fetch is the difference to the lru sub-benchmark.
func BenchmarkACICFetch(b *testing.B) {
	prof, ok := workload.ByName("media-streaming")
	if !ok {
		b.Fatal("media-streaming profile missing")
	}
	blocks := experiments.Prepare(prof, 200_000).Blocks
	run := func(b *testing.B, cfg icache.Config) {
		c := icache.MustNew(cfg)
		i := 0
		for b.Loop() {
			c.Fetch(blocks[i%len(blocks)], int64(i), int64(i))
			i++
		}
	}
	b.Run("lru", func(b *testing.B) {
		run(b, icache.Config{Policy: policy.NewLRU()})
	})
	for _, v := range experiments.Fig15Variants {
		b.Run(v.Name, func(b *testing.B) {
			cc := core.DefaultConfig()
			v.Mutate(&cc)
			run(b, icache.Config{Policy: policy.NewLRU(), ACIC: &cc})
		})
	}
}
