package cpu

import (
	"testing"

	"acic/internal/branch"
	"acic/internal/icache"
	"acic/internal/mem"
	"acic/internal/policy"
	"acic/internal/trace"
	"acic/internal/workload"
)

// tinyWorkload builds a small deterministic workload for timing tests.
func tinyWorkload(t *testing.T, n int) (*trace.Trace, []branch.Annotation) {
	t.Helper()
	prof, ok := workload.ByName("media-streaming")
	if !ok {
		t.Fatal("profile missing")
	}
	tr := workload.Generate(prof, n)
	return tr, branch.NewFrontEnd().Annotate(tr)
}

func newSub(t *testing.T) *icache.Complex {
	t.Helper()
	return icache.MustNew(icache.Config{Sets: 64, Ways: 8, Policy: policy.NewLRU()})
}

func TestSimulatorRetiresEverything(t *testing.T) {
	tr, ann := tinyWorkload(t, 20000)
	sim := NewSimulator(DefaultConfig(), NewProgram(tr, ann), newSub(t), mem.New(mem.DefaultConfig()))
	res := sim.Run(0)
	if res.Instructions != int64(len(tr.Insts)) {
		t.Errorf("retired %d of %d instructions", res.Instructions, len(tr.Insts))
	}
	if res.Cycles <= res.Instructions/6 {
		t.Errorf("cycles %d below the 6-wide bound", res.Cycles)
	}
	if res.IPC() <= 0 || res.IPC() > 6 {
		t.Errorf("IPC %v out of range", res.IPC())
	}
	if res.BlockAccesses == 0 || res.DemandMisses == 0 {
		t.Errorf("implausible counters: %+v", res)
	}
}

func TestWarmupExcluded(t *testing.T) {
	tr, ann := tinyWorkload(t, 20000)
	full := NewSimulator(DefaultConfig(), NewProgram(tr, ann), newSub(t), mem.New(mem.DefaultConfig())).Run(0)
	warm := NewSimulator(DefaultConfig(), NewProgram(tr, ann), newSub(t), mem.New(mem.DefaultConfig())).Run(10000)
	if warm.Instructions >= full.Instructions {
		t.Errorf("warmup did not reduce measured instructions: %d vs %d", warm.Instructions, full.Instructions)
	}
	if warm.Cycles >= full.Cycles {
		t.Error("warmup did not reduce measured cycles")
	}
}

func TestBlockAccessIndexMatchesOracleTimebase(t *testing.T) {
	// The simulator's access numbering must equal trace.BlockAccesses'
	// numbering — the OPT oracle depends on it.
	tr, ann := tinyWorkload(t, 30000)
	sim := NewSimulator(DefaultConfig(), NewProgram(tr, ann), newSub(t), mem.New(mem.DefaultConfig()))
	res := sim.Run(0)
	if got, want := res.BlockAccesses, int64(len(tr.BlockAccesses())); got != want {
		t.Errorf("simulator saw %d block accesses, trace has %d", got, want)
	}
}

func TestFDPReducesStallsNotMissesAccounting(t *testing.T) {
	tr, ann := tinyWorkload(t, 60000)
	cfgOn := DefaultConfig()
	cfgOff := DefaultConfig()
	cfgOff.UseFDP = false
	on := NewSimulator(cfgOn, NewProgram(tr, ann), newSub(t), mem.New(mem.DefaultConfig())).Run(0)
	off := NewSimulator(cfgOff, NewProgram(tr, ann), newSub(t), mem.New(mem.DefaultConfig())).Run(0)
	if on.Cycles >= off.Cycles {
		t.Errorf("FDP should speed things up: %d vs %d cycles", on.Cycles, off.Cycles)
	}
	if on.DemandMisses >= off.DemandMisses {
		t.Errorf("FDP should reduce demand misses: %d vs %d", on.DemandMisses, off.DemandMisses)
	}
	if on.Prefetches == 0 {
		t.Error("FDP issued no prefetches")
	}
	if off.Prefetches != 0 {
		t.Error("disabled FDP issued prefetches")
	}
}

func TestBiggerCacheIsFaster(t *testing.T) {
	tr, ann := tinyWorkload(t, 60000)
	small := icache.MustNew(icache.Config{Sets: 16, Ways: 2, Policy: policy.NewLRU()})
	big := icache.MustNew(icache.Config{Sets: 64, Ways: 8, Policy: policy.NewLRU()})
	rs := NewSimulator(DefaultConfig(), NewProgram(tr, ann), small, mem.New(mem.DefaultConfig())).Run(0)
	rb := NewSimulator(DefaultConfig(), NewProgram(tr, ann), big, mem.New(mem.DefaultConfig())).Run(0)
	if rb.Cycles >= rs.Cycles {
		t.Errorf("32KB cache should beat 2KB: %d vs %d cycles", rb.Cycles, rs.Cycles)
	}
	if rb.MPKI() >= rs.MPKI() {
		t.Errorf("32KB MPKI %.2f should be below 2KB MPKI %.2f", rb.MPKI(), rs.MPKI())
	}
}

func TestMPKIComputation(t *testing.T) {
	r := Result{Instructions: 2000, DemandMisses: 50}
	if got := r.MPKI(); got != 25 {
		t.Errorf("MPKI = %v, want 25", got)
	}
	var zero Result
	if zero.MPKI() != 0 || zero.IPC() != 0 {
		t.Error("zero result must not divide by zero")
	}
}

func TestAnnotationLengthChecked(t *testing.T) {
	tr, _ := tinyWorkload(t, 1000)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on annotation mismatch")
		}
	}()
	NewSimulator(DefaultConfig(), NewProgram(tr, nil), newSub(t), mem.New(mem.DefaultConfig()))
}

func TestEmptyTrace(t *testing.T) {
	tr := &trace.Trace{}
	sim := NewSimulator(DefaultConfig(), NewProgram(tr, nil), newSub(t), mem.New(mem.DefaultConfig()))
	res := sim.Run(0)
	if res.Instructions != 0 {
		t.Error("empty trace should retire nothing")
	}
}

func TestDeterminism(t *testing.T) {
	tr, ann := tinyWorkload(t, 30000)
	r1 := NewSimulator(DefaultConfig(), NewProgram(tr, ann), newSub(t), mem.New(mem.DefaultConfig())).Run(1000)
	r2 := NewSimulator(DefaultConfig(), NewProgram(tr, ann), newSub(t), mem.New(mem.DefaultConfig())).Run(1000)
	if r1 != r2 {
		t.Errorf("simulation is not deterministic:\n%+v\n%+v", r1, r2)
	}
}

func TestStallBreakdownAccounting(t *testing.T) {
	tr, ann := tinyWorkload(t, 40000)
	res := NewSimulator(DefaultConfig(), NewProgram(tr, ann), newSub(t), mem.New(mem.DefaultConfig())).Run(0)
	if res.IMissStallCycles <= 0 {
		t.Error("a missing workload must accumulate i-miss stall cycles")
	}
	if res.RedirectStallCycles <= 0 {
		t.Error("mispredicting workload must accumulate redirect stall cycles")
	}
	if res.IMissStallCycles+res.RedirectStallCycles >= res.Cycles {
		t.Errorf("stall cycles %d+%d exceed total %d",
			res.IMissStallCycles, res.RedirectStallCycles, res.Cycles)
	}
	// A perfect-size cache reduces i-miss stalls.
	big := icache.MustNew(icache.Config{Sets: 512, Ways: 8, Policy: policy.NewLRU()})
	resBig := NewSimulator(DefaultConfig(), NewProgram(tr, ann), big, mem.New(mem.DefaultConfig())).Run(0)
	if resBig.IMissStallCycles >= res.IMissStallCycles {
		t.Error("a much larger cache should cut i-miss stalls")
	}
}

// TestConfigValidate covers each core field the cycle loop needs: a zero
// ROB, fetch width or retire width used to livelock Run, and NewSimulator
// now refuses them (and a negative pipeline depth) up front.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	tr, ann := tinyWorkload(t, 1000)
	prog := NewProgram(tr, ann)
	for name, mutate := range map[string]func(*Config){
		"ROB":           func(c *Config) { c.ROB = 0 },
		"FetchWidth":    func(c *Config) { c.FetchWidth = 0 },
		"RetireWidth":   func(c *Config) { c.RetireWidth = 0 },
		"PipelineDepth": func(c *Config) { c.PipelineDepth = -1 },
		"Sample":        func(c *Config) { c.Sample = SampleConfig{Stride: 3} },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted the config")
			}
			defer func() {
				if recover() == nil {
					t.Error("NewSimulator accepted the config")
				}
			}()
			NewSimulator(cfg, prog, newSub(t), mem.New(mem.DefaultConfig()))
		})
	}
	// The smallest valid core still runs to completion.
	cfg := DefaultConfig()
	cfg.ROB, cfg.FetchWidth, cfg.RetireWidth, cfg.PipelineDepth = 1, 1, 1, 0
	if res := NewSimulator(cfg, prog, newSub(t), mem.New(mem.DefaultConfig())).Run(0); res.Instructions != int64(prog.Len()) {
		t.Errorf("minimal core retired %d of %d instructions", res.Instructions, prog.Len())
	}
}

// TestDataLatenciesMatchReplay pins the timeline precompute against a
// direct hierarchy replay: the array must equal DataAccess called per
// memory instruction in order, and be stable across Ensure calls.
func TestDataLatenciesMatchReplay(t *testing.T) {
	prof, _ := workload.ByName("wikipedia")
	tr := workload.Generate(prof, 30_000)
	prog := NewProgram(tr, branch.NewFrontEnd().Annotate(tr))
	prog.EnsureDataLatencies(mem.DefaultConfig())

	h := mem.New(mem.DefaultConfig())
	saved := append([]int16(nil), prog.DataLat...)
	for i, d := range prog.Desc {
		want := int16(0)
		if d&(descLoad|descStore) != 0 {
			want = int16(h.DataAccess(prog.MemBlk[i]))
		}
		if saved[i] != want {
			t.Fatalf("DataLat[%d] = %d, replay says %d", i, saved[i], want)
		}
	}

	// A second same-config Ensure must be a no-op.
	prog.EnsureDataLatencies(mem.DefaultConfig())
	for i := range saved {
		if prog.DataLat[i] != saved[i] {
			t.Fatalf("EnsureDataLatencies recomputed the timeline at %d", i)
		}
	}

	// A different config would silently mis-time every load: it must panic.
	cfg := mem.DefaultConfig()
	cfg.L1DSets = 1
	cfg.L1DWays = 1
	defer func() {
		if recover() == nil {
			t.Error("EnsureDataLatencies with a mismatched config must panic")
		}
	}()
	prog.EnsureDataLatencies(cfg)
}
