package experiments

import (
	"testing"

	"acic/internal/analysis"
	"acic/internal/bypass"
	"acic/internal/cpu"
	"acic/internal/icache"
	"acic/internal/policy"
	"acic/internal/workload"
)

// TestSuccessorArrayEquivalence pins the hot-path data layout end to end:
// the oracle schemes simulated with the successor cursor attached (each
// demand's next use read in order from the oracle's rows, then carried as
// per-line and per-filter-slot next-use metadata) must produce exactly
// the same cpu.Result as the same schemes running on oracle-closure
// fallback queries alone, in a full and in a set-sampled run. Any drift
// in the cursor or in the carried-metadata invariants (staleness on
// hit/fill, filter victim carry, lazy prefetch resolution) shows up as a
// cycle or miss-count difference here.
func TestSuccessorArrayEquivalence(t *testing.T) {
	for _, app := range []string{"media-streaming", "data-caching", "wikipedia"} {
		prof, ok := workload.ByName(app)
		if !ok {
			t.Fatalf("unknown workload %q", app)
		}
		w := Prepare(prof, 200_000)
		oracle := analysis.NewNextUseOracle(w.Blocks)
		build := func(scheme string, withCursor bool, sample cpu.SampleConfig) icache.Subsystem {
			c := icache.Config{Sets: 64, Ways: 8, NextUse: oracle.Func(), Sample: sample.Filter()}
			switch scheme {
			case "opt":
				c.Policy = policy.NewOPT()
			case "opt-bypass":
				c.Policy = policy.NewLRU()
				c.FilterSlots = 16
				c.Bypass = bypass.OPTBypass{}
			}
			if withCursor {
				c.Successors = oracle
			}
			return icache.MustNew(c)
		}
		for _, sample := range []cpu.SampleConfig{{}, {Stride: 8, Offset: 3}} {
			for _, scheme := range []string{"opt", "opt-bypass"} {
				for _, pf := range []string{"none", "fdp"} {
					opts := DefaultOptions()
					opts.Prefetcher = pf
					opts.Sample = sample
					fast, err := RunSubsystem(w, build(scheme, true, sample), opts)
					if err != nil {
						t.Fatal(err)
					}
					slow, err := RunSubsystem(w, build(scheme, false, sample), opts)
					if err != nil {
						t.Fatal(err)
					}
					if fast != slow {
						t.Errorf("%s/%s/%s/stride %d: successor-cursor result %+v != oracle-fallback result %+v",
							app, scheme, pf, sample.Stride, fast, slow)
					}
				}
			}
		}
	}
}
