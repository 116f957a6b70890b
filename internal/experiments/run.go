// Package experiments drives the paper's evaluation: it prepares workloads
// (trace generation, branch annotation, next-use oracle), instantiates
// every i-cache management scheme of Table IV, runs the timing simulator,
// and renders each table and figure of the paper (see DESIGN.md §5 for the
// experiment index).
package experiments

import (
	"fmt"
	"hash/fnv"

	"acic/internal/analysis"
	"acic/internal/branch"
	"acic/internal/cpu"
	"acic/internal/experiments/engine"
	"acic/internal/icache"
	"acic/internal/mem"
	"acic/internal/prefetch"
	"acic/internal/trace"
	"acic/internal/workload"
)

// Workload bundles everything scheme runs share for one application: the
// preprocessed program (trace, branch annotations, fetch descriptors, and
// the collapsed block-access sequence — all scheme-independent), the
// next-use oracle built over the block sequence, and the successor array
// (NextAt[i] = next access to the block demanded at access i) that lets
// the oracle schemes answer their dominant query with one slice read.
type Workload struct {
	Profile workload.Profile
	Prog    *cpu.Program
	Trace   *trace.Trace
	Ann     []branch.Annotation
	Blocks  []uint64
	Oracle  *analysis.NextUseOracle
	NextAt  []int64
}

// Prepare generates a workload of n instructions and builds the shared
// artifacts, including the data-side latency timeline every scheme run
// reads instead of re-simulating the data hierarchy. It runs the staged
// pipeline (trace → program → successor array → latency timeline) without
// a persistent store; hand PipelineConfig a Dir to make these stages
// reusable artifacts across processes.
func Prepare(p workload.Profile, n int) *Workload {
	pl, err := NewPipeline(PipelineConfig{
		N:      n,
		Lookup: func(name string) (workload.Profile, bool) { return p, name == p.Name },
	})
	if err != nil {
		panic(err) // unreachable: no store directory was configured
	}
	w, err := pl.Workload(p.Name)
	if err != nil {
		panic(err) // unreachable: the profile is registered in the lookup
	}
	return w
}

// AutoGangWindow, as Options.GangWindow (or Suite.GangWindow), selects the
// measured adaptive traversal window: derived at gang startup from the
// members' probed footprints against the host cache budget
// (MeasuredGangWindow) instead of the fixed cpu.DefaultGangWindow
// heuristic. Like every window choice it affects only host-cache
// behavior, never results.
const AutoGangWindow = -1

// Options configure a simulation run.
type Options struct {
	WarmupFrac float64 // fraction of instructions treated as warmup (0.1)
	Prefetcher string  // any name from Prefetchers(); "" = "fdp"
	// Sample selects SDM-style set-sampled simulation (zero value = full):
	// only the sampled constituencies of i-cache sets are simulated and
	// the returned results are extrapolated back to the whole cache
	// (cpu.Result.Extrapolated; DESIGN.md §10 documents the error bounds).
	Sample cpu.SampleConfig
	// GangWindow is the traversal window gang runs use: 0 selects the
	// fixed cpu.DefaultGangWindow, AutoGangWindow derives it from measured
	// footprints (MeasuredGangWindow), any positive value pins it. Results
	// are byte-identical at every setting.
	GangWindow int
}

// DefaultOptions mirrors the paper's setup: FDP platform, 10% warmup.
func DefaultOptions() Options { return Options{WarmupFrac: 0.1, Prefetcher: "fdp"} }

// SampleConfigForSets converts a sampled-set count over the default L1i
// geometry into the simulator's sampling configuration: sampleSets of the
// icache.DefaultSets sets are simulated, one per stride-sized
// constituency, pinned to the fixed fallback constituency 1. 0 (or the
// full set count) disables sampling; the count must otherwise be a power
// of two below the set count. The default paths (Suite and the CLIs) go
// through SampleConfigFor instead, which derives the constituency from
// the workload digest.
func SampleConfigForSets(sampleSets int) (cpu.SampleConfig, error) {
	return SampleConfigFor(sampleSets, 1, "")
}

// SampleConfigFor converts a sampled-set count into one workload's
// sampling configuration. offset selects the constituency: 0 derives it
// from app's profile digest (sampleOffsetFor — a per-workload default
// that never lands on constituency 0), any value in [1, stride) pins it
// explicitly. Constituency 0 is not selectable: function entries and
// region starts concentrate at block numbers that are multiples of small
// powers of two, so the sets ≡ 0 (mod stride) constituency holds a
// disproportionate share of hot, well-cached blocks and underestimates
// miss rates by ~25% on the datacenter workloads (DESIGN.md §10).
func SampleConfigFor(sampleSets, offset int, app string) (cpu.SampleConfig, error) {
	switch {
	case sampleSets == 0 || sampleSets == icache.DefaultSets:
		return cpu.SampleConfig{}, nil
	case sampleSets < 0 || sampleSets > icache.DefaultSets:
		return cpu.SampleConfig{}, fmt.Errorf("experiments: -sample-sets must be in [1,%d], got %d", icache.DefaultSets, sampleSets)
	case sampleSets&(sampleSets-1) != 0:
		return cpu.SampleConfig{}, fmt.Errorf("experiments: -sample-sets must be a power of two, got %d", sampleSets)
	}
	stride := icache.DefaultSets / sampleSets
	if offset == 0 {
		offset = sampleOffsetFor(stride, app)
	}
	if offset < 1 || offset >= stride {
		return cpu.SampleConfig{}, fmt.Errorf("experiments: sample constituency must be in [1,%d) (0 is alignment-biased; DESIGN.md §10), got %d", stride, offset)
	}
	cfg := cpu.SampleConfig{Stride: stride, Offset: offset}
	if err := cfg.Validate(); err != nil {
		return cpu.SampleConfig{}, err
	}
	return cfg, nil
}

// sampleOffsetFor derives a workload's default sample constituency from
// its profile digest: a stable hash folded into [1, stride). Every
// workload thus samples a fixed but decorrelated constituency — instead
// of all workloads sharing one arbitrary offset — and none can land on
// the alignment-biased constituency 0. Deterministic across processes
// (the digest is content-addressed), and part of the result-cache key
// (keys.go sampleKey), so cached sampled results can never be confused
// across constituencies.
func sampleOffsetFor(stride int, app string) int {
	if stride <= 2 {
		return 1
	}
	p, ok := workload.ByName(app)
	h := fnv.New32a()
	h.Write([]byte(profileDigest(p, ok, app)))
	return 1 + int(h.Sum32()%uint32(stride-1))
}

// Run simulates one scheme over the workload and returns the result
// (extrapolated when opts.Sample enables set sampling).
func Run(w *Workload, scheme string, opts Options) (cpu.Result, error) {
	sub, err := NewSampledScheme(scheme, w, opts.Sample)
	if err != nil {
		return cpu.Result{}, err
	}
	return RunSubsystem(w, sub, opts)
}

// prefetcherPlatforms maps each platform name to its simulator wiring,
// weakest first (the display order of the bracketing experiments). The
// name list and RunSubsystem's dispatch both derive from this table so
// they cannot drift.
var prefetcherPlatforms = []struct {
	name  string
	apply func(*cpu.Config)
}{
	{"none", func(c *cpu.Config) { c.UseFDP = false }},
	{"next-line", func(c *cpu.Config) { c.UseFDP = false; c.Extra = prefetch.NewNextLine(1) }},
	{"stream", func(c *cpu.Config) { c.UseFDP = false; c.Extra = prefetch.NewStream(prefetch.DefaultStreamConfig()) }},
	{"entangling", func(c *cpu.Config) {
		c.UseFDP = false
		c.Extra = prefetch.NewEntangling(prefetch.DefaultEntanglingConfig())
	}},
	{"fdp", func(c *cpu.Config) { c.UseFDP = true }},
}

// Prefetchers lists the implemented prefetcher platforms, weakest first.
func Prefetchers() []string {
	names := make([]string, len(prefetcherPlatforms))
	for i, p := range prefetcherPlatforms {
		names[i] = p.name
	}
	return names
}

// platformConfig returns the core configuration for a prefetcher platform
// name ("" = "fdp"), wiring a fresh Extra prefetcher instance when the
// platform carries one.
func platformConfig(prefetcher string) (cpu.Config, error) {
	cfg := cpu.DefaultConfig()
	if prefetcher == "" {
		prefetcher = "fdp"
	}
	for _, p := range prefetcherPlatforms {
		if p.name == prefetcher {
			p.apply(&cfg)
			return cfg, nil
		}
	}
	return cpu.Config{}, fmt.Errorf("experiments: unknown prefetcher %q", prefetcher)
}

// warmup returns the warmup instruction count for a workload under opts.
// Length comes from the Program, not the trace — streamed-prepared
// workloads carry no Inst records.
func warmup(w *Workload, opts Options) int64 {
	return int64(float64(w.Prog.Len()) * opts.WarmupFrac)
}

// RunSubsystem simulates a pre-built subsystem over the workload. With
// opts.Sample enabled the simulator bypasses non-sampled constituencies
// and the result is extrapolated; the subsystem should have been built
// with the matching filter (NewSampledScheme or icache.Config.Sample) so
// its shared structures are scaled consistently.
func RunSubsystem(w *Workload, sub icache.Subsystem, opts Options) (cpu.Result, error) {
	cfg, err := platformConfig(opts.Prefetcher)
	if err != nil {
		return cpu.Result{}, err
	}
	cfg.Sample = opts.Sample
	if err := cfg.Validate(); err != nil {
		return cpu.Result{}, err
	}
	hier := mem.New(mem.DefaultConfig())
	sim := cpu.NewSimulator(cfg, w.Prog, sub, hier)
	return sim.Run(warmup(w, opts)).Extrapolated(), nil
}

// GangCell names one gang member: a scheme run under a prefetcher
// platform ("" = the gang Options' Prefetcher). Cross-prefetcher gangs
// are sound because the only state members share is read-only — the
// Program and its data-latency timeline, which is prefetcher-independent
// (the data-access sequence is fixed by instruction order) — while every
// prefetcher-touched structure (FTQ, FDP stream, Extra prefetcher tables)
// is private per-member simulator state.
type GangCell struct {
	Scheme     string
	Prefetcher string
}

// RunGangCells simulates a heterogeneous gang over one workload: members
// may differ in prefetcher platform as well as scheme, and all advance
// through one shared Program traversal (see cpu.Gang), with the members'
// instruction-side hierarchies carved out of contiguous backing arrays.
// Results and errors are indexed like cells; a member that fails to
// construct (unknown scheme or prefetcher) reports its error in errs
// while the remaining members still run. window reports the traversal
// window the gang ran under (derived from measured footprints when
// opts.GangWindow is AutoGangWindow). Each member's result is
// bit-identical to Run(w, cell.Scheme, opts-with-cell.Prefetcher).
func RunGangCells(w *Workload, cells []GangCell, opts Options) (results []cpu.Result, window int, errs []error) {
	return runGangCells(w, cells, opts, nil)
}

// runGangCells is RunGangCells with an instrument hook, called with each
// member's cell index and built subsystem before the gang simulates.
// Every member gets its own platform config: stateful Extra prefetchers
// must not be shared across members.
func runGangCells(w *Workload, cells []GangCell, opts Options, instrument func(i int, sub icache.Subsystem)) (results []cpu.Result, window int, errs []error) {
	results = make([]cpu.Result, len(cells))
	errs = make([]error, len(cells))
	if err := opts.Sample.Validate(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return results, 0, errs
	}
	subs := make([]icache.Subsystem, 0, len(cells))
	members := make([]cpu.GangMember, 0, len(cells))
	slot := make([]int, 0, len(cells))
	for i, c := range cells {
		pf := c.Prefetcher
		if pf == "" {
			pf = opts.Prefetcher
		}
		cfg, err := platformConfig(pf)
		if err != nil {
			errs[i] = err
			continue
		}
		sub, err := NewSampledScheme(c.Scheme, w, opts.Sample)
		if err != nil {
			errs[i] = err
			continue
		}
		if instrument != nil {
			instrument(i, sub)
		}
		cfg.Sample = opts.Sample
		subs = append(subs, sub)
		members = append(members, cpu.GangMember{Cfg: cfg, Sub: sub})
		slot = append(slot, i)
	}
	hiers := mem.NewGang(mem.DefaultConfig(), len(members))
	for i := range members {
		members[i].Hier = hiers[i]
	}
	window = opts.GangWindow
	if window == AutoGangWindow {
		window = MeasuredGangWindow(w.Prog, subs)
	}
	gang := cpu.NewGang(w.Prog, members, window)
	for j, r := range gang.Run(warmup(w, opts)) {
		results[slot[j]] = r.Extrapolated()
	}
	return results, gang.Window(), errs
}

// MeasuredGangWindow derives the traversal window an auto-mode gang of
// the given subsystems runs under: the widest member footprint — the
// default hierarchy's struct-of-gangs share plus the subsystem's own
// estimate — is probed against the detected (or ACIC_LLC_BYTES-
// overridden) host cache budget, with the program's measured bytes per
// instruction sizing the shared window slice (cpu.AutoGangWindow
// documents the rule).
func MeasuredGangWindow(prog *cpu.Program, subs []icache.Subsystem) int {
	hier := mem.New(mem.DefaultConfig()).FootprintBytes()
	perMember := hier
	for _, sub := range subs {
		if fp := hier + subsystemFootprint(sub); fp > perMember {
			perMember = fp
		}
	}
	return cpu.AutoGangWindow(engine.LLCBytes(), perMember, len(subs), prog.GangBytesPerInstr())
}

// GangWindowEstimate reports the traversal window a members-wide gang of
// default-footprint schemes over w would run under in auto mode, so the
// measured bytes/instr and the host budget can be inspected without
// running a simulation.
func GangWindowEstimate(w *Workload, members int) int {
	perMember := mem.New(mem.DefaultConfig()).FootprintBytes() + defaultSubsystemFootprint()
	return cpu.AutoGangWindow(engine.LLCBytes(), perMember, members, w.Prog.GangBytesPerInstr())
}

// subsystemFootprint reads a subsystem's working-set estimate, falling
// back to the default-geometry L1 arrays for subsystems that do not
// report one.
func subsystemFootprint(sub icache.Subsystem) int64 {
	if f, ok := sub.(interface{ FootprintBytes() int64 }); ok {
		return f.FootprintBytes()
	}
	return defaultSubsystemFootprint()
}

func defaultSubsystemFootprint() int64 {
	return int64(icache.DefaultSets * icache.DefaultWays * 24)
}

// Speedup returns base cycles over result cycles.
func Speedup(base, res cpu.Result) float64 {
	if res.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(res.Cycles)
}

// MPKIReduction returns the fractional MPKI reduction of res vs base
// (positive = fewer misses).
func MPKIReduction(base, res cpu.Result) float64 {
	bm := base.MPKI()
	if bm == 0 {
		return 0
	}
	return (bm - res.MPKI()) / bm
}
