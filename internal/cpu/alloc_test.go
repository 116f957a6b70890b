package cpu

import (
	"testing"

	"acic/internal/analysis"
	"acic/internal/branch"
	"acic/internal/bypass"
	"acic/internal/core"
	"acic/internal/icache"
	"acic/internal/mem"
	"acic/internal/policy"
	"acic/internal/workload"
)

// TestSteadyStateZeroAllocs pins the zero-allocation property of the
// simulation hot path: once warm, one simulated cycle — demand fetches,
// prefetch fills, policy updates, admission decisions, data-side hierarchy
// accesses — must not touch the heap, for every scheme family with
// per-block state (flat tables, carried next-use metadata, reusable access
// contexts). A regression here silently reintroduces GC pressure into
// every experiment sweep.
func TestSteadyStateZeroAllocs(t *testing.T) {
	prof, ok := workload.ByName("media-streaming")
	if !ok {
		t.Fatal("media-streaming profile missing")
	}
	const n = 150_000
	tr := workload.Generate(prof, n)
	ann := branch.NewFrontEnd().Annotate(tr)
	blocks := tr.BlockAccesses()
	oracle := analysis.NewNextUseOracle(blocks).Func()
	nextAt := analysis.NextUseArray(blocks)

	base := func() icache.Config { return icache.Config{Sets: 64, Ways: 8} }
	subsystems := map[string]func() icache.Subsystem{
		"lru": func() icache.Subsystem {
			c := base()
			c.Policy = policy.NewLRU()
			return icache.MustNew(c)
		},
		"opt": func() icache.Subsystem {
			c := base()
			c.Policy = policy.NewOPT()
			c.NextUse = oracle
			c.NextAt = nextAt
			return icache.MustNew(c)
		},
		"opt-bypass": func() icache.Subsystem {
			c := base()
			c.Policy = policy.NewLRU()
			c.FilterSlots = 16
			c.Bypass = bypass.OPTBypass{}
			c.NextUse = oracle
			c.NextAt = nextAt
			return icache.MustNew(c)
		},
		"harmony": func() icache.Subsystem {
			c := base()
			c.Policy = policy.NewHawkeye(policy.DefaultHawkeyeConfig())
			return icache.MustNew(c)
		},
		"acic": func() icache.Subsystem {
			cc := core.DefaultConfig()
			c := base()
			c.Policy = policy.NewLRU()
			c.ACIC = &cc
			return icache.MustNew(c)
		},
		// The largest Fig 15 geometries: 1024 PT update queues behind the
		// active-queue list and a 32-slot i-Filter. Their preallocated
		// queue rings, active list and per-field arrays must never grow.
		"acic-10bit-32slot": func() icache.Subsystem {
			cc := core.DefaultConfig()
			cc.Predictor.HistoryBits = 10
			cc.FilterSlots = 32
			c := base()
			c.Policy = policy.NewLRU()
			c.ACIC = &cc
			return icache.MustNew(c)
		},
		"eaf": func() icache.Subsystem {
			c := base()
			c.Policy = policy.NewLRU()
			c.Bypass = bypass.NewEAF(bypass.DefaultEAFConfig())
			return icache.MustNew(c)
		},
		"ripple-lite": func() icache.Subsystem {
			c := base()
			c.Policy = policy.NewProfileGuided(policy.Profile(blocks[:len(blocks)/10], 512))
			return icache.MustNew(c)
		},
	}

	for name, mk := range subsystems {
		t.Run(name, func(t *testing.T) {
			s := NewSimulator(DefaultConfig(), NewProgram(tr, ann), mk(), mem.New(mem.DefaultConfig()))
			// Warm to steady state: structures reach their high-water
			// capacities within the first three quarters of the trace.
			for !s.done() && s.instructions < 3*n/4 {
				s.step()
			}
			if s.done() {
				t.Fatal("trace too short to measure steady state")
			}
			allocs := testing.AllocsPerRun(2000, func() {
				if !s.done() {
					s.step()
				}
			})
			if allocs != 0 {
				t.Errorf("%s: steady-state cycle allocates %.2f times", name, allocs)
			}
		})
	}

	// The gang path must preserve the property: once its members are warm,
	// advancing the whole gang through traversal windows stays off the heap.
	t.Run("gang", func(t *testing.T) {
		prog := NewProgram(tr, ann)
		names := []string{"lru", "opt", "harmony", "acic", "eaf"}
		hiers := mem.NewGang(mem.DefaultConfig(), len(names))
		members := make([]GangMember, len(names))
		for i, name := range names {
			members[i] = GangMember{Cfg: DefaultConfig(), Sub: subsystems[name](), Hier: hiers[i]}
		}
		g := NewGang(prog, members, DefaultGangWindow)
		for i := range g.sims {
			g.sims[i].start(0)
		}
		bound := 0
		for bound < 3*n/4 {
			bound += DefaultGangWindow
			g.advance(bound)
		}
		if g.advance(bound) == 0 {
			t.Fatal("trace too short to measure gang steady state")
		}
		allocs := testing.AllocsPerRun(200, func() {
			bound += 64
			g.advance(bound)
		})
		if allocs != 0 {
			t.Errorf("gang: steady-state advance allocates %.2f times", allocs)
		}
	})
}
