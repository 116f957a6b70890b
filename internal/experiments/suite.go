package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"acic/internal/cache"
	"acic/internal/cpu"
	"acic/internal/experiments/engine"
	"acic/internal/icache"
	"acic/internal/workload"
)

// Cell identifies one simulation the evaluation needs: an application run
// under a scheme and a prefetcher platform (trace length and warmup come
// from the owning Suite). Figures and tables are rendered from a plan of
// cells; the engine executes the deduplicated plan in parallel.
type Cell struct {
	App        string
	Scheme     string
	Prefetcher string
}

func (c Cell) String() string { return c.App + "|" + c.Scheme + "|" + c.Prefetcher }

// CrossCells enumerates the cell grid apps × schemes under one prefetcher.
func CrossCells(apps, schemes []string, prefetcher string) []Cell {
	cells := make([]Cell, 0, len(apps)*len(schemes))
	for _, app := range apps {
		for _, sch := range schemes {
			cells = append(cells, Cell{App: app, Scheme: sch, Prefetcher: prefetcher})
		}
	}
	return cells
}

// Config is the one description of a run: everything a Suite's results
// depend on (N, Apps, SampleSets, which cross the wire to distributed
// workers under these JSON names) plus the per-process engine and
// storage settings, which stay local (json:"-"). The CLI flags fill it
// directly (cmd/internal/cliutil), and a distrib coordinator advertises
// the Config of the suite it serves, so the flag set, the wire config and
// every Suite share this one type.
type Config struct {
	// N is the trace length in instructions per workload (0 =
	// DefaultTraceLen, resolved when the engine starts).
	N int `json:"n"`
	// Apps restricts the datacenter app list (nil = all ten).
	Apps []string `json:"apps,omitempty"`
	// SampleSets, when > 0, switches every simulation the suite runs into
	// the set-sampled fast mode: only SampleSets of the 64 i-cache sets
	// are simulated (one per stride-sized constituency, SDM methodology,
	// the constituency derived from each workload's digest) and results
	// are extrapolated back to the whole cache. Exploratory sweeps run
	// roughly 64/SampleSets× less subsystem work per access; DESIGN.md
	// §10 documents the validated error bars. Sampled results are cached
	// under distinct keys (keys.go sampleKey), so one CacheDir safely
	// serves both lanes. 0 (or 64) keeps the byte-identical full
	// reference path. Must be a power of two.
	SampleSets int `json:"sample_sets,omitempty"`

	// Workers bounds the worker pool (0 = ACIC_WORKERS or GOMAXPROCS).
	Workers int `json:"-"`
	// CacheDir enables the persistent result cache in that directory
	// ("" = in-memory only). Entries are keyed by workload profile hash,
	// trace length, scheme, prefetcher, and run options, so reruns of
	// acic-bench / acic-sim recompute only what changed.
	CacheDir string `json:"-"`
	// ArtifactDir enables the persistent workload artifact store ("" =
	// in-memory only): each app's prepared workload persists as one
	// content-addressed entry keyed like the result cache, so warm
	// reruns skip straight to simulation (see Pipeline). CacheDir and
	// ArtifactDir may point at the same directory — result entries are
	// .json, artifacts .actr.
	ArtifactDir string `json:"-"`
}

// Suite plans and executes the simulations behind the paper's tables and
// figures. Workload preparation and (app, scheme, prefetcher) runs are
// memoized with per-key singleflight and executed on a bounded worker
// pool, so figures sharing runs (Fig 10/11/13/16, ...) pay for each
// simulation once and independent cells run in parallel. Renderers first
// declare their cell set (Require / PrepareAll) and then read completed
// results, which keeps output byte-identical across worker counts.
//
// Configure the exported fields before the first figure call; they are
// frozen once the engine spins up.
type Suite struct {
	Config
	// Progress, if non-nil, is called after each completed cell with the
	// running done count, the number of cells planned so far, and a
	// human-readable label. Called from worker goroutines.
	Progress func(done, total int, label string)
	// Remote, when non-nil, routes each Require batch's new cells to a
	// distributed executor instead of the local worker pool (see the
	// Remote interface in remote.go). Results come back through the
	// shared store, so rendered output stays byte-identical to local
	// execution; transiently failed cells are computed locally.
	Remote Remote
	// Context, when non-nil, cancels work that has not started yet: cells
	// check it before simulating and fail with the
	// context's error once it is done. Cells already inside a simulation
	// run to completion — the per-access hot path stays free of
	// cancellation checks — so cancellation drains within one cell's
	// latency. CLIs wire SIGINT/SIGTERM here for graceful shutdown.
	Context context.Context
	// Instrument, if non-nil, is called with each cell's freshly built
	// subsystem on the worker goroutine about to simulate it, so a caller
	// can attach observers (acic-sim's ACIC decision recorder) without a
	// second execution path. A retried cell is instrumented once per
	// attempt: a handler must replace, not accumulate, its per-cell
	// state. Cells answered from CacheDir or by a Remote executor never
	// simulate here and are never instrumented. Called concurrently from
	// worker goroutines.
	Instrument func(c Cell, sub icache.Subsystem)

	once     sync.Once
	pool     *engine.Pool
	pipeline *Pipeline
	results  *engine.Group[Cell, cpu.Result]
	// resultStore is the disk cache behind results (nil without CacheDir),
	// retained so FaultStats can report its quarantine count.
	resultStore *engine.DiskCache[Cell, cpu.Result]
	done        atomic.Int64
	cacheErr    error
}

// GangStats is the counter shape of the retired gang lane. Both fields
// read 0: every cell runs as its own simulation.
type GangStats struct {
	Gangs int64
	Cells int64
}

// DefaultTraceLen is the default per-workload instruction count, overridable
// with the ACIC_BENCH_N environment variable. It is scaled well below the
// paper's 500M-1B so the full suite reproduces on a laptop; the structural
// results (orderings, crossovers) are stable from a few hundred thousand
// instructions up.
func DefaultTraceLen() int {
	if s := os.Getenv("ACIC_BENCH_N"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 400_000
}

// NewSuite creates a suite with the given trace length (0 = default).
func NewSuite(n int) *Suite { return &Suite{Config: Config{N: n}} }

// init spins up the engine on first use.
func (s *Suite) init() {
	s.once.Do(func() {
		if s.N <= 0 {
			s.N = DefaultTraceLen()
		}
		// Set-count validation is app-independent, so one probe call
		// surfaces a configuration error up front; per-app configs
		// (digest-derived offsets) are then built on demand.
		_, sampleErr := SampleConfigFor(s.SampleSets, "")
		s.pool = engine.NewPool(s.Workers)
		var plErr error
		s.pipeline, plErr = NewPipeline(PipelineConfig{N: s.N, Dir: s.ArtifactDir, Pool: s.pool, simOnly: true})
		s.results = engine.NewGroup(s.pool, s.computeCell)
		s.results.Name = "cell"
		s.results.Retry = engine.DefaultRetry()
		if s.CacheDir != "" {
			cache, err := engine.NewDiskCache[Cell, cpu.Result](s.CacheDir, s.cacheKey)
			if err != nil {
				s.cacheErr = err
			} else {
				s.results.Cache = cache
				s.resultStore = cache
			}
		}
		s.cacheErr = errors.Join(s.cacheErr, plErr, sampleErr)
		s.results.OnDone = func(c Cell, fromCache bool, err error) {
			if s.Progress == nil {
				return
			}
			label := c.String()
			if fromCache {
				label += " (cached)"
			}
			if err != nil {
				label += " (error)"
			}
			s.Progress(int(s.done.Add(1)), s.results.Size(), label)
		}
	})
}

// cacheKey canonicalizes everything a cell's result depends on. Its
// prefix is shared with the artifact store (keys.go), so one
// cacheSchemaVersion bump or config edit invalidates both together; the
// trailing sample component keeps sampled and full entries disjoint.
func (s *Suite) cacheKey(c Cell) string {
	opts := s.options(c.App)
	return fmt.Sprintf("%s|scheme:%s|pf:%s|warmup:%g|sample:%s",
		storeKeyPrefix(profileDigest(c.App), s.N), c.Scheme, c.Prefetcher,
		opts.WarmupFrac, sampleKey(opts.Sample))
}

// sampleFor returns the app's sampling configuration — the suite's set
// count with the workload's digest-derived constituency offset. It is
// not memoized: the digest is a table read (keys.go), so deriving it
// costs one small hash, and a query naming an unknown app leaves no
// per-name state behind. Configuration errors were surfaced by init;
// here they are logic errors.
func (s *Suite) sampleFor(app string) cpu.SampleConfig {
	sc, err := SampleConfigFor(s.SampleSets, app)
	if err != nil {
		panic(err)
	}
	return sc
}

// options returns the run options a suite cell of the given app — and
// every instrumented per-app sweep the renderers fan out — executes
// under: the paper defaults plus the suite's sampling mode (per-app, as
// the sampled constituency is derived from the workload digest).
func (s *Suite) options(app string) Options {
	opts := DefaultOptions()
	opts.Sample = s.sampleFor(app)
	return opts
}

// sampleFilter returns the constituency filter the app's suite runs build
// their subsystems under (the zero filter when sampling is off); renderers
// that construct instrumented icache.Configs directly attach it so their
// shared structures scale like the planned cells' do.
func (s *Suite) sampleFilter(app string) cache.SampleFilter { return s.sampleFor(app).Filter() }

// ctxErr reports the suite's cancellation state: non-nil once the
// configured Context is done.
func (s *Suite) ctxErr() error {
	if s.Context == nil {
		return nil
	}
	return s.Context.Err()
}

// computeCell runs one simulation cell. Cells that have not started when
// the suite's Context is cancelled fail with the context error instead of
// simulating.
func (s *Suite) computeCell(c Cell) (cpu.Result, error) {
	if err := s.ctxErr(); err != nil {
		return cpu.Result{}, err
	}
	w, err := s.pipeline.Workload(c.App)
	if err != nil {
		return cpu.Result{}, err
	}
	opts := s.options(c.App)
	opts.Prefetcher = c.Prefetcher
	sub, err := NewSampledScheme(c.Scheme, w, opts.Sample)
	if err != nil {
		return cpu.Result{}, err
	}
	if s.Instrument != nil {
		s.Instrument(c, sub)
	}
	return RunSubsystem(w, sub, opts)
}

// datacenterNames is the default application list, built once: the serve
// daemon expands a query through AppNames on every request.
var datacenterNames = sync.OnceValue(func() []string {
	var names []string
	for _, p := range workload.Datacenter() {
		names = append(names, p.Name)
	}
	return names
})

// AppNames returns the datacenter application list in paper order.
func (s *Suite) AppNames() []string {
	if s.Apps != nil {
		return s.Apps
	}
	return slices.Clone(datacenterNames())
}

// SPECNames returns the SPEC workload list in paper order.
func (s *Suite) SPECNames() []string {
	var names []string
	for _, p := range workload.SPEC() {
		names = append(names, p.Name)
	}
	return names
}

// PrepareAll prepares the named workloads in parallel through the
// artifact pipeline (trace generation, branch annotation, successor
// array, data-latency timeline), memoizing each and loading any app the
// artifact store already holds.
func (s *Suite) PrepareAll(apps ...string) error {
	s.init()
	return s.pipeline.Require(apps...)
}

// Workload returns the prepared workload for an app, generating on demand.
// It carries what simulation reads — the Program's descriptor and block
// arrays (the descriptors hold each instruction's branch redirect and each
// load's data level), the successor array and the oracle — but no Inst
// records (Trace holds only the name), no Prog.MemBlk, no Prog.DataLat
// and no annotations, whether it was prepared cold or loaded. Outside a
// Suite only a store load returns those (Pipeline.Workload).
func (s *Suite) Workload(app string) (*Workload, error) {
	s.init()
	return s.pipeline.Workload(app)
}

// wl returns an already-validated workload; renderers call it after a
// successful PrepareAll/Require, at which point failure is a logic error.
func (s *Suite) wl(app string) *Workload {
	w, err := s.Workload(app)
	if err != nil {
		panic(err)
	}
	return w
}

// Require plans and executes the given cells: duplicates (within the batch
// and against earlier work) are executed once, the rest run in parallel on
// the worker pool, or on the Remote executor when one is set. All cells
// are attempted; the first error in argument order is returned. Renderers
// call Require before reading results so their output does not depend on
// execution order.
func (s *Suite) Require(cells ...Cell) error {
	s.init()
	if s.Remote != nil {
		s.submitRemote(cells)
	}
	err := s.results.Require(cells...)
	if err != nil {
		for _, c := range cells {
			s.results.ForgetIf(c, IsUnknownName)
		}
	}
	return err
}

// GangStats reports the zero-valued counters of the retired gang lane.
func (s *Suite) GangStats() GangStats { return GangStats{} }

// Result returns the simulation result for (app, scheme) under the given
// prefetcher (any name from Prefetchers()), computing it if needed.
func (s *Suite) Result(app, scheme, prefetcher string) (cpu.Result, error) {
	s.init()
	c := Cell{App: app, Scheme: scheme, Prefetcher: prefetcher}
	res, err := s.results.Get(c)
	if err != nil {
		s.results.ForgetIf(c, IsUnknownName)
	}
	return res, err
}

// res returns an already-planned result; renderers call it after a
// successful Require, at which point failure is a logic error.
func (s *Suite) res(app, scheme, prefetcher string) cpu.Result {
	r, err := s.Result(app, scheme, prefetcher)
	if err != nil {
		panic(err)
	}
	return r
}

// SpeedupOver returns cycles(base)/cycles(scheme) for one app.
func (s *Suite) SpeedupOver(app, base, scheme, prefetcher string) (float64, error) {
	if err := s.Require(Cell{app, base, prefetcher}, Cell{app, scheme, prefetcher}); err != nil {
		return 0, err
	}
	return s.speedupOver(app, base, scheme, prefetcher), nil
}

func (s *Suite) speedupOver(app, base, scheme, prefetcher string) float64 {
	return Speedup(s.res(app, base, prefetcher), s.res(app, scheme, prefetcher))
}

// MPKIReductionOver returns the fractional MPKI reduction vs base.
func (s *Suite) MPKIReductionOver(app, base, scheme, prefetcher string) (float64, error) {
	if err := s.Require(Cell{app, base, prefetcher}, Cell{app, scheme, prefetcher}); err != nil {
		return 0, err
	}
	return s.mpkiReductionOver(app, base, scheme, prefetcher), nil
}

func (s *Suite) mpkiReductionOver(app, base, scheme, prefetcher string) float64 {
	return MPKIReduction(s.res(app, base, prefetcher), s.res(app, scheme, prefetcher))
}

// each runs fn(0..n-1) on the worker pool and waits; it powers the
// instrumented per-app sweeps (Fig 3b-style runs that attach callbacks and
// so cannot share plain cells). Results must be written to index-addressed
// slots so rendering order stays deterministic.
func (s *Suite) each(n int, fn func(i int) error) error {
	s.init()
	return s.pool.Each(n, fn)
}

// eachCell flattens a rows × cols instrumented sweep (variant × app,
// mode × app, ...) onto the worker pool; fn writes its outputs to
// caller-owned (row, col)-addressed slots.
func (s *Suite) eachCell(rows, cols int, fn func(row, col int) error) error {
	return s.each(rows*cols, func(i int) error { return fn(i/cols, i%cols) })
}

// CacheError reports whether a persistent store requested via CacheDir or
// ArtifactDir could not be opened (the suite still runs, unpersisted).
// Callers that want persistence to be load-bearing should fail on it.
func (s *Suite) CacheError() error {
	s.init()
	return s.cacheErr
}

// Stats reports engine counters: simulations computed this process,
// results served from the persistent cache, and workloads prepared.
func (s *Suite) Stats() (computed, fromCache, workloads int64) {
	s.init()
	return s.results.Computed(), s.results.CacheHits(), s.pipeline.WorkloadsPrepared()
}

// MemoSizes reports how many cells the result memo holds and how many
// apps the workload memo holds, completed or in flight. A cell or app
// naming something no registry holds is forgotten once it fails
// (unknownName), so both stay bounded by the registries whatever names
// callers send.
func (s *Suite) MemoSizes() (cells, workloads int) {
	s.init()
	return s.results.Size(), s.pipeline.workloads.Size()
}

// PrepareStats reports the artifact pipeline's per-stage counters (see
// Pipeline.Stats): artifacts regenerated this process vs. loaded from the
// store. On a warm store every stage shows zero regenerations.
func (s *Suite) PrepareStats() []StageStats {
	s.init()
	return s.pipeline.Stats()
}
