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
	"acic/internal/icache"
	"acic/internal/mem"
	"acic/internal/prefetch"
	"acic/internal/trace"
	"acic/internal/workload"
)

// Workload bundles everything scheme runs share for one application: the
// preprocessed program (trace, branch annotations, fetch descriptors, and
// the collapsed block-access sequence — all scheme-independent) and the
// next-use oracle built over the block sequence, which the oracle schemes
// read through a per-run successor cursor (icache.Config.Successors).
type Workload struct {
	Profile workload.Profile
	Prog    *cpu.Program
	// Trace is Prog.Trace. Its Inst records are present only on workloads
	// from Prepare or from a store load through Pipeline.Workload; a cold
	// prepare and every Suite workload leave just the name.
	Trace *trace.Trace
	// Ann is Prog.Ann, present on the same workloads as Trace's Inst
	// records: nil on a cold-prepared one and on every Suite workload,
	// whose descriptors carry the redirect bits.
	Ann    []branch.Annotation
	Blocks []uint64
	Oracle *analysis.NextUseOracle
	// NextAt is the successor array the store's NXTA section carries
	// (NextAt[i] = next access to the block demanded at access i). No
	// simulation reads it; it is kept on Prepare's workloads and on a
	// plain Pipeline's, for the callers that digest or compare it, and is
	// nil on every Suite workload.
	NextAt []int64
}

// Prepare generates a workload of n instructions (0 = DefaultTraceLen)
// and builds the shared artifacts, including the data-side latency
// timeline every scheme run reads instead of re-simulating the data
// hierarchy, in one whole-trace pass per stage. It is the reference the
// windowed Pipeline is pinned against, and unlike a cold Pipeline it keeps
// the trace's Inst records.
func Prepare(p workload.Profile, n int) *Workload {
	if n <= 0 {
		n = DefaultTraceLen()
	}
	tr := workload.Generate(p, n)
	prog := cpu.NewProgram(tr, branch.NewFrontEnd().Annotate(tr))
	prog.EnsureDataLatencies(mem.DefaultConfig())
	return newWorkload(p, prog, analysis.NextUseArray(prog.Blocks))
}

// Options configure a simulation run.
type Options struct {
	WarmupFrac float64 // fraction of instructions treated as warmup (0.1)
	Prefetcher string  // any name from Prefetchers(); "" = "fdp"
	// Sample selects SDM-style set-sampled simulation (zero value = full):
	// only the sampled constituencies of i-cache sets are simulated and
	// the returned results are extrapolated back to the whole cache
	// (cpu.Result.Extrapolated; DESIGN.md §10 documents the error bounds).
	Sample cpu.SampleConfig
}

// DefaultOptions mirrors the paper's setup: FDP platform, 10% warmup.
func DefaultOptions() Options { return Options{WarmupFrac: 0.1, Prefetcher: "fdp"} }

// SampleConfigFor converts a sampled-set count into one workload's
// sampling configuration: sampleSets of the icache.DefaultSets sets are
// simulated, one per stride-sized constituency, with the constituency
// derived from app's profile digest (sampleOffsetFor). 0 (or the full set
// count) disables sampling; the count must otherwise be a power of two
// below the set count. Constituency 0 is never chosen: function entries
// and region starts concentrate at block numbers that are multiples of
// small powers of two, so the sets ≡ 0 (mod stride) constituency holds a
// disproportionate share of hot, well-cached blocks and underestimates
// miss rates by ~25% on the datacenter workloads (DESIGN.md §10).
func SampleConfigFor(sampleSets int, app string) (cpu.SampleConfig, error) {
	switch {
	case sampleSets == 0 || sampleSets == icache.DefaultSets:
		return cpu.SampleConfig{}, nil
	case sampleSets < 0 || sampleSets > icache.DefaultSets:
		return cpu.SampleConfig{}, fmt.Errorf("experiments: -sample-sets must be in [1,%d], got %d", icache.DefaultSets, sampleSets)
	case sampleSets&(sampleSets-1) != 0:
		return cpu.SampleConfig{}, fmt.Errorf("experiments: -sample-sets must be a power of two, got %d", sampleSets)
	}
	stride := icache.DefaultSets / sampleSets
	return cpu.SampleConfig{Stride: stride, Offset: sampleOffsetFor(stride, app)}, nil
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
	h := fnv.New32a()
	h.Write([]byte(profileDigest(app)))
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
	return cpu.Config{}, unknownName{"prefetcher", prefetcher}
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

// GangCell names one cell of a RunGangCells batch: a scheme run under a
// prefetcher platform ("" = the batch Options' Prefetcher).
type GangCell struct {
	Scheme     string
	Prefetcher string
}

// RunGangCells runs each cell over one workload through RunSubsystem, in
// order. Results and errors are indexed like cells; a cell that fails to
// construct (unknown scheme or prefetcher) reports its error in errs while
// the others still run. The window result is always 0: it is kept, with
// the signature, for callers written against the retired gang lane.
func RunGangCells(w *Workload, cells []GangCell, opts Options) (results []cpu.Result, window int, errs []error) {
	results = make([]cpu.Result, len(cells))
	errs = make([]error, len(cells))
	for i, c := range cells {
		o := opts
		if c.Prefetcher != "" {
			o.Prefetcher = c.Prefetcher
		}
		results[i], errs[i] = Run(w, c.Scheme, o)
	}
	return results, 0, errs
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
