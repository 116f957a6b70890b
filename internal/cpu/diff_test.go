package cpu

import (
	"math/rand"
	"testing"

	"acic/internal/branch"
	"acic/internal/icache"
	"acic/internal/mem"
	"acic/internal/policy"
	"acic/internal/prefetch"
	"acic/internal/workload"
)

// TestClosedFormRetireMatchesReference drives the closed-form retire loop
// and the per-cycle reference (ref_test.go) over seeded random core
// configurations and requires identical Results, ICache stats included.
func TestClosedFormRetireMatchesReference(t *testing.T) {
	var progs []*Program
	for _, app := range []string{"media-streaming", "web-search", "tpcc"} {
		prof, ok := workload.ByName(app)
		if !ok {
			t.Fatalf("profile %s missing", app)
		}
		tr := workload.Generate(prof, 15_000)
		progs = append(progs, NewProgram(tr, branch.NewFrontEnd().Annotate(tr)))
	}
	extras := []struct {
		name string
		mk   func() prefetch.Prefetcher
	}{
		{"none", func() prefetch.Prefetcher { return nil }},
		{"next-line", func() prefetch.Prefetcher { return prefetch.NewNextLine(1) }},
		{"stream", func() prefetch.Prefetcher { return prefetch.NewStream(prefetch.DefaultStreamConfig()) }},
		{"entangling", func() prefetch.Prefetcher { return prefetch.NewEntangling(prefetch.DefaultEntanglingConfig()) }},
	}

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 96; trial++ {
		prog := progs[trial%len(progs)]
		extra := extras[trial/len(progs)%len(extras)]
		cfg := DefaultConfig()
		cfg.ROB = 1 + rng.Intn(352)
		cfg.RetireWidth = 1 + rng.Intn(8)
		cfg.FetchWidth = 1 + rng.Intn(8)
		cfg.PipelineDepth = int64(rng.Intn(21))
		// Every fourth trial takes the corners where retire is bounded by
		// dispatch (a zero-depth pipeline) and by a small ROB.
		if trial%4 == 0 {
			cfg.ROB = 1 + rng.Intn(16)
			cfg.PipelineDepth = 0
		}
		cfg.FTQBlocks = 1 + rng.Intn(32)
		cfg.MaxPrefetches = 1 + rng.Intn(16)
		cfg.UseFDP = rng.Intn(2) == 0
		sets := 16 << rng.Intn(3)
		warm := int64(rng.Intn(prog.Len() / 2))

		newSim := func() *Simulator {
			c := cfg
			c.Extra = extra.mk()
			sub := icache.MustNew(icache.Config{Sets: sets, Ways: 4, Policy: policy.NewLRU()})
			return NewSimulator(c, prog, sub, mem.New(mem.DefaultConfig()))
		}
		want := newRefSim(newSim()).run(warm)

		got := newSim().Run(warm)
		if got != want {
			t.Errorf("trial %d (%s, extra %s, ROB %d, retire %d, fetch %d, depth %d, FDP %v):\n closed-form %+v\n reference   %+v",
				trial, prog.Trace.Name, extra.name, cfg.ROB, cfg.RetireWidth, cfg.FetchWidth, cfg.PipelineDepth, cfg.UseFDP, got, want)
		}
	}
}
