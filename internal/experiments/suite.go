package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"acic/internal/cache"
	"acic/internal/cpu"
	"acic/internal/experiments/engine"
	"acic/internal/faults"
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
	// N is the trace length in instructions per workload.
	N int
	// Apps restricts the datacenter app list (nil = all ten).
	Apps []string
	// Workers bounds the worker pool (0 = ACIC_WORKERS or GOMAXPROCS).
	Workers int
	// CacheDir enables the persistent result cache in that directory
	// ("" = in-memory only). Entries are keyed by workload profile hash,
	// trace length, scheme, prefetcher, and run options, so reruns of
	// acic-bench / acic-sim recompute only what changed.
	CacheDir string
	// ArtifactDir enables the persistent workload artifact store ("" =
	// in-memory only): each prepare stage (trace, annotated program,
	// successor array, data-latency timeline) persists as a
	// content-addressed artifact keyed like the result cache, so warm
	// reruns skip straight to simulation (see Pipeline). CacheDir and
	// ArtifactDir may point at the same directory — result entries are
	// .json, artifacts .actr.
	ArtifactDir string
	// PrepareWindow, when > 0, streams cold workload preparation in
	// windows of that many instructions (see PipelineConfig.Window): peak
	// prepare memory drops from O(N) instruction records to O(window),
	// artifacts and results stay byte-identical, and a warm artifact store
	// is loaded exactly as in batch mode. 0 keeps the batch prepare.
	PrepareWindow int
	// SampleSets, when > 0, switches every simulation the suite runs into
	// the set-sampled fast mode: only SampleSets of the 64 i-cache sets
	// are simulated (one per stride-sized constituency, SDM methodology)
	// and results are extrapolated back to the whole cache. Exploratory
	// sweeps run roughly 64/SampleSets× less subsystem work per access;
	// DESIGN.md §10 documents the validated error bars. Sampled results
	// are cached under distinct keys (keys.go sampleKey), so one CacheDir
	// safely serves both lanes. 0 (or 64) keeps the byte-identical full
	// reference path. Must be a power of two.
	SampleSets int
	// GangSize, when > 1, turns on gang execution: each Require batch
	// groups its same-app cells — across prefetcher platforms, since the
	// shared Program and its data-latency timeline are prefetcher-
	// independent — and runs every group as a single cpu.Gang simulation,
	// one Program traversal driving all of the group's (scheme,
	// prefetcher) members, instead of one task per cell. Groups are split
	// into chunks of at most GangSize, widened to fill idle pool slots
	// (see submitGangs), so a wide grid still fans out across the worker
	// pool. Results, the per-cell memo, the disk cache, and rendered
	// output are byte-identical to per-cell execution at any GangSize.
	GangSize int
	// GangWindow selects the gang traversal window: 0 runs the fixed
	// cpu.DefaultGangWindow heuristic, AutoGangWindow derives the window
	// from measured member footprints against the host cache budget
	// (MeasuredGangWindow), and any positive value pins it. Windows only
	// affect host-cache behavior, never results or cache keys.
	GangWindow int
	// SampleOffset pins the sampled constituency when SampleSets is
	// active: 0 (the default) derives a per-workload offset from the
	// trace digest — constituency 0 is alignment-biased, see DESIGN.md
	// §10 — and any value in [1, stride) selects that constituency for
	// every workload.
	SampleOffset int
	// Progress, if non-nil, is called after each completed cell with the
	// running done count, the number of cells planned so far, and a
	// human-readable label. Called from worker goroutines.
	Progress func(done, total int, label string)
	// Remote, when non-nil, routes each Require batch's new cells to a
	// distributed executor instead of the local gang scheduler (see the
	// Remote interface in remote.go). Results come back through the
	// shared store, so rendered output stays byte-identical to local
	// execution; transiently failed cells fall back to the local serial
	// ladder.
	Remote Remote
	// Context, when non-nil, cancels work that has not started yet: cells
	// (and gang tasks) check it before simulating and fail with the
	// context's error once it is done. Cells already inside a simulation
	// run to completion — the per-access hot path stays free of
	// cancellation checks — so cancellation drains within one cell's
	// latency. CLIs wire SIGINT/SIGTERM here for graceful shutdown.
	Context context.Context
	// Instrument, if non-nil, is called with each cell's freshly built
	// subsystem on the worker goroutine about to simulate it — serial
	// cells, gang members and the degrade ladder's serial reruns alike —
	// so a caller can attach observers (acic-sim's ACIC decision
	// recorder) without a second execution path. A gang that degrades
	// re-instruments its members for their serial reruns, and a retried
	// cell is instrumented once per attempt: a handler must replace, not
	// accumulate, its per-cell state. Cells answered from CacheDir or by
	// a Remote executor never simulate here and are never instrumented.
	// Called concurrently from worker goroutines.
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

	sampleMu sync.Mutex
	samples  map[string]cpu.SampleConfig // per-app sampling config (digest-derived offsets)

	gangRuns     atomic.Int64 // gang tasks that reached simulation
	gangCells    atomic.Int64 // cells produced by gang simulations
	gangMixed    atomic.Int64 // gang runs spanning >1 prefetcher platform
	gangMaxWidth atomic.Int64 // widest gang simulated
	gangWindow   atomic.Int64 // traversal window of the most recent gang run

	gangDegraded  atomic.Int64 // gangs that died whole and degraded to serial
	serialReruns  atomic.Int64 // cells re-run serially by the degradation ladder
	ladderRetries atomic.Int64 // retries spent inside serial reruns
}

// GangStats summarizes the suite's gang scheduling so far: how many gang
// simulations ran, how many cells they produced, how many spanned more
// than one prefetcher platform, the widest gang, and the traversal window
// of the most recent run (uniform across runs unless workloads differ in
// measured footprint under -gang-window auto).
type GangStats struct {
	Gangs    int64
	Cells    int64
	Mixed    int64
	MaxWidth int64
	Window   int64
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
func NewSuite(n int) *Suite {
	if n <= 0 {
		n = DefaultTraceLen()
	}
	return &Suite{N: n}
}

// init spins up the engine on first use.
func (s *Suite) init() {
	s.once.Do(func() {
		// Offset-range and set-count validation is app-independent, so one
		// probe call surfaces any configuration error up front; per-app
		// configs (digest-derived offsets) are then built on demand.
		_, sampleErr := SampleConfigFor(s.SampleSets, s.SampleOffset, "")
		s.pool = engine.NewPool(s.Workers)
		var plErr error
		s.pipeline, plErr = NewPipeline(PipelineConfig{N: s.N, Dir: s.ArtifactDir, Pool: s.pool, Window: s.PrepareWindow})
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
	p, ok := workload.ByName(c.App)
	opts := s.options(c.App)
	return fmt.Sprintf("%s|scheme:%s|pf:%s|warmup:%g|sample:%s",
		storeKeyPrefix(profileDigest(p, ok, c.App), s.N), c.Scheme, c.Prefetcher,
		opts.WarmupFrac, sampleKey(opts.Sample))
}

// sampleFor returns the app's sampling configuration — the suite's set
// count with the workload's digest-derived constituency offset (or the
// pinned SampleOffset) — memoized because the digest hashes the profile.
// Configuration errors were surfaced by init; here they are logic errors.
func (s *Suite) sampleFor(app string) cpu.SampleConfig {
	s.sampleMu.Lock()
	defer s.sampleMu.Unlock()
	if sc, ok := s.samples[app]; ok {
		return sc
	}
	if s.samples == nil { // cacheKey is callable before the engine spins up
		s.samples = make(map[string]cpu.SampleConfig)
	}
	sc, err := SampleConfigFor(s.SampleSets, s.SampleOffset, app)
	if err != nil {
		panic(err)
	}
	s.samples[app] = sc
	return sc
}

// options returns the run options a suite cell of the given app — and
// every instrumented per-app sweep the renderers fan out — executes
// under: the paper defaults plus the suite's sampling mode (per-app, as
// the sampled constituency is derived from the workload digest) and gang
// window policy.
func (s *Suite) options(app string) Options {
	opts := DefaultOptions()
	opts.Sample = s.sampleFor(app)
	opts.GangWindow = s.GangWindow
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

// AppNames returns the datacenter application list in paper order.
func (s *Suite) AppNames() []string {
	if s.Apps != nil {
		return s.Apps
	}
	var names []string
	for _, p := range workload.Datacenter() {
		names = append(names, p.Name)
	}
	return names
}

// SPECNames returns the SPEC workload list in paper order.
func (s *Suite) SPECNames() []string {
	var names []string
	for _, p := range workload.SPEC() {
		names = append(names, p.Name)
	}
	return names
}

// PrepareAll prepares the named workloads in parallel through the staged
// artifact pipeline (trace generation, branch annotation, successor
// array, data-latency timeline), memoizing each and loading any stage the
// artifact store already holds.
func (s *Suite) PrepareAll(apps ...string) error {
	s.init()
	return s.pipeline.Require(apps...)
}

// Workload returns the prepared workload for an app, generating on demand.
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
// the worker pool. With GangSize > 1 the batch's new cells are first
// grouped into gang tasks (same app, any prefetcher — one Program
// traversal per gang). All cells are attempted; the first error in
// argument order is returned. Renderers call Require before reading
// results so their output does not depend on execution order.
func (s *Suite) Require(cells ...Cell) error {
	s.init()
	switch {
	case s.Remote != nil:
		s.submitRemote(cells)
	case s.GangSize > 1:
		s.submitGangs(cells)
	}
	return s.results.Require(cells...)
}

// submitGangs claims the batch's not-yet-planned cells, groups them by app
// in first-appearance order — prefetcher platforms mix freely within a
// gang, since members share only the read-only Program — and submits one
// pool task per chunk of the packing plan. The packer starts from the
// minimum chunk count each group needs under GangSize and then splits the
// widest chunks while idle pool slots remain (packChunks): with spare
// workers, narrower-but-more gangs fill the pool; with the pool
// saturated, GangSize-wide gangs amortize traversals best. Cells claimed
// here are completed by their gang task; the results.Require that follows
// only waits on them.
func (s *Suite) submitGangs(cells []Cell) {
	claimed := make(map[string][]Cell)
	var order []string
	for _, c := range cells {
		if !s.results.TryClaim(c) {
			continue // computed, in flight, or a duplicate within the batch
		}
		if _, ok := claimed[c.App]; !ok {
			order = append(order, c.App)
		}
		claimed[c.App] = append(claimed[c.App], c)
	}
	sizes := make([]int, len(order))
	for i, app := range order {
		sizes[i] = len(claimed[app])
	}
	// The occupancy snapshot is taken once, before any task launches, so
	// the plan does not react to its own submissions.
	chunks := packChunks(sizes, s.GangSize, s.pool.Idle())
	for i, app := range order {
		for _, gang := range splitBalanced(claimed[app], chunks[i]) {
			s.pool.Go(func() { s.runGangTask(gang) })
		}
	}
}

// packChunks decides how many gang tasks each group's cells split into.
// Every group starts at its minimum — ceil(size/gangSize), the fewest
// chunks that respect the width cap — and while the plan leaves pool
// slots idle, the group whose chunks are currently widest is split once
// more. Deterministic for a given occupancy snapshot; like the window,
// the packing affects only scheduling, never results.
func packChunks(sizes []int, gangSize, idle int) []int {
	chunks := make([]int, len(sizes))
	total := 0
	for i, n := range sizes {
		chunks[i] = (n + gangSize - 1) / gangSize
		total += chunks[i]
	}
	for total < idle {
		widest, width := -1, 1
		for i, n := range sizes {
			if w := (n + chunks[i] - 1) / chunks[i]; w > width {
				widest, width = i, w
			}
		}
		if widest < 0 {
			break // every chunk is a single cell; nothing left to split
		}
		chunks[widest]++
		total++
	}
	return chunks
}

// splitBalanced cuts batch into parts contiguous chunks whose sizes differ
// by at most one, preserving order.
func splitBalanced(batch []Cell, parts int) [][]Cell {
	if parts < 1 {
		parts = 1
	}
	if parts > len(batch) {
		parts = len(batch)
	}
	out := make([][]Cell, 0, parts)
	for start, i := 0, 0; i < parts; i++ {
		end := start + (len(batch)-start)/(parts-i)
		out = append(out, batch[start:end])
		start = end
	}
	return out
}

// runGangTask produces one gang's cells: disk-cached members are fulfilled
// directly, the rest — whatever mix of schemes and prefetcher platforms
// survived the cache — run as a single gang simulation over the shared
// workload. It is the one degrade ladder every CLI runs on.
//
// Failures walk a degradation ladder rather than failing the gang. A
// panic anywhere in the gang run (the members share one Program
// traversal, so no per-slot result can be trusted) degrades the whole
// gang: every pending cell re-runs serially. A per-slot error with the
// rest of the gang healthy re-runs just that cell serially while the
// survivors' results stand. Serial reruns go through the guarded,
// bounded-retry path (rerunSerial) and deliberately sit at the bottom of
// the ladder — a cell that still fails there fails its figure with a
// typed CellError, never the run. Every cell claimed by this task is
// fulfilled on every path; an unfulfilled claim would deadlock the
// Require waiting on it.
func (s *Suite) runGangTask(gang []Cell) {
	pending := gang[:0:0]
	for _, c := range gang {
		if !s.results.TryCache(c) {
			pending = append(pending, c)
		}
	}
	if len(pending) == 0 {
		return
	}
	if err := s.ctxErr(); err != nil {
		for _, c := range pending {
			s.results.Fulfill(c, cpu.Result{}, err)
		}
		return
	}
	w, err := s.pipeline.Workload(pending[0].App)
	if err != nil {
		for _, c := range pending {
			s.results.Fulfill(c, cpu.Result{}, err)
		}
		return
	}
	results, window, errs, gangErr := s.gangAttempt(w, pending)
	if gangErr != nil {
		s.gangDegraded.Add(1)
		for _, c := range pending {
			s.rerunSerial(c)
		}
		return
	}
	s.gangRuns.Add(1)
	s.gangCells.Add(int64(len(pending)))
	pfs := make(map[string]bool, 1)
	for _, c := range pending {
		pfs[c.Prefetcher] = true
	}
	if len(pfs) > 1 {
		s.gangMixed.Add(1)
	}
	for old := s.gangMaxWidth.Load(); int64(len(pending)) > old; old = s.gangMaxWidth.Load() {
		if s.gangMaxWidth.CompareAndSwap(old, int64(len(pending))) {
			break
		}
	}
	s.gangWindow.Store(int64(window))
	for i, c := range pending {
		if errs[i] != nil {
			s.rerunSerial(c)
			continue
		}
		s.results.Fulfill(c, results[i], nil)
	}
}

// gangAttempt runs one gang simulation of the pending same-app cells
// under panic isolation. A non-nil error means the gang as a whole
// produced nothing usable (the caller degrades to serial); per-slot
// construction errors come back in errs with the other slots' results
// intact.
func (s *Suite) gangAttempt(w *Workload, pending []Cell) ([]cpu.Result, int, []error, error) {
	type gangOut struct {
		results []cpu.Result
		window  int
		errs    []error
	}
	app := pending[0].App
	gcells := make([]GangCell, len(pending))
	key := app
	for i, c := range pending {
		gcells[i] = GangCell{Scheme: c.Scheme, Prefetcher: c.Prefetcher}
		key += " " + c.Scheme + "/" + c.Prefetcher
	}
	opts := s.options(app)
	var instrument func(int, icache.Subsystem)
	if s.Instrument != nil {
		instrument = func(i int, sub icache.Subsystem) { s.Instrument(pending[i], sub) }
	}
	out, err := engine.Guard(fmt.Sprintf("gang:%s[%d]", app, len(gcells)), true, func() (gangOut, error) {
		faults.PanicPoint("gang", key)
		results, window, errs := runGangCells(w, gcells, opts, instrument)
		return gangOut{results, window, errs}, nil
	})
	return out.results, out.window, out.errs, err
}

// rerunSerial is the bottom rung of the degradation ladder: one cell,
// re-run on its own through the guarded bounded-retry path, then
// fulfilled with whatever came out — a result, or a typed error that
// fails only the figures needing this cell.
func (s *Suite) rerunSerial(c Cell) {
	s.serialReruns.Add(1)
	res, err, retried := engine.Retry(s.results.Retry, c.String(), false, func() (cpu.Result, error) {
		return s.computeCell(c)
	})
	if retried > 0 {
		s.ladderRetries.Add(int64(retried))
	}
	s.results.Fulfill(c, res, err)
}

// GangStats reports the suite's gang scheduling counters so far.
func (s *Suite) GangStats() GangStats {
	return GangStats{
		Gangs:    s.gangRuns.Load(),
		Cells:    s.gangCells.Load(),
		Mixed:    s.gangMixed.Load(),
		MaxWidth: s.gangMaxWidth.Load(),
		Window:   s.gangWindow.Load(),
	}
}

// Result returns the simulation result for (app, scheme) under the given
// prefetcher (any name from Prefetchers()), computing it if needed.
func (s *Suite) Result(app, scheme, prefetcher string) (cpu.Result, error) {
	s.init()
	return s.results.Get(Cell{App: app, Scheme: scheme, Prefetcher: prefetcher})
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

// PrepareStats reports the artifact pipeline's per-stage counters (see
// Pipeline.Stats): artifacts regenerated this process vs. loaded from the
// store. On a warm store every stage shows zero regenerations.
func (s *Suite) PrepareStats() []StageStats {
	s.init()
	return s.pipeline.Stats()
}
