package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"acic/internal/analysis"
	"acic/internal/branch"
	"acic/internal/cpu"
	"acic/internal/experiments/engine"
	"acic/internal/mem"
	"acic/internal/trace"
	"acic/internal/workload"
)

// stageRetry is the retry policy every pipeline stage group runs under:
// transient failures (injected faults, MarkTransient-wrapped errors) are
// re-attempted with jittered backoff; deterministic failures — a bad
// profile, a genuine panic in derivation — fail the stage immediately.
// Stage computes are idempotent (every fault site fires before state is
// mutated), so re-entry is always safe.
func stageRetry() engine.RetryPolicy { return engine.DefaultRetry() }

// Pipeline is the staged workload-preparation pipeline: the monolithic
// Prepare split into four content-addressed stages,
//
//	trace   — synthetic trace generation (workload.Generate)
//	program — branch-predictor replay + descriptor derivation (cpu.Program)
//	nextat  — next-use successor array (analysis.NextUseArray)
//	datalat — data-side latency timeline (Program.EnsureDataLatencies)
//
// each memoized with per-key singleflight and, when a store directory is
// configured, persisted through the trace codec's v2 container format
// (sections INST / ANNO+DESC+BLKS / NXTA / DLAT). Stage keys share the
// result cache's derivation (keys.go: schema version, simulator-config
// digest, profile digest, trace length), so a config edit invalidates
// prepared artifacts and cached results together. Artifacts are
// best-effort: an unreadable, truncated, corrupt, or version-mismatched
// entry is a miss and the stage regenerates (and rewrites) it — the store
// can only make preparation faster, never wrong.
//
// Concurrent workers in one process share a single materialization per
// stage through the groups' singleflight; concurrent processes share
// through the store's atomic temp-file-and-rename writes.
type Pipeline struct {
	n      int
	window int
	memCfg mem.Config
	lookup func(string) (workload.Profile, bool)

	traces    *engine.Group[string, *trace.Trace]
	programs  *engine.Group[string, *cpu.Program]
	nextats   *engine.Group[string, []int64]
	datalats  *engine.Group[string, []int16]
	workloads *engine.Group[string, *Workload]

	// Typed store handles, retained alongside the groups' Cache fields so
	// the streamed prepare (stream.go) can probe warmth (Has) and write
	// artifacts directly — it bypasses the stage groups entirely, fusing
	// all four passes into one windowed walk. All nil when no store is
	// configured.
	traceStore   *engine.DiskCache[string, *trace.Trace]
	programStore *engine.DiskCache[string, *cpu.Program]
	nextatStore  *engine.DiskCache[string, []int64]
	datalatStore *engine.DiskCache[string, []int16]

	streamed        atomic.Int64
	streamFallbacks atomic.Int64 // streamed prepares that degraded to batch
}

// PipelineConfig configures NewPipeline.
type PipelineConfig struct {
	// N is the trace length in instructions (0 = DefaultTraceLen).
	N int
	// Dir enables the on-disk artifact store in that directory ("" =
	// in-memory memoization only).
	Dir string
	// Pool executes batch work (Warm, Require); nil creates a default
	// pool. Demand-driven stage computation (Workload) runs inline on the
	// calling goroutine either way.
	Pool *engine.Pool
	// Lookup resolves app names to profiles (nil = workload.ByName).
	Lookup func(string) (workload.Profile, bool)
	// Window, when > 0, turns cold preparation into the windowed streaming
	// pipeline: generation, branch annotation, descriptor derivation, the
	// successor array, and the data-latency replay advance together Window
	// instructions at a time, so peak memory is O(Window) instruction
	// records instead of O(N). Artifacts land in the store byte-identical
	// to the batch path's; warm loads are unaffected. 0 = batch prepare.
	Window int
}

// NewPipeline builds the staged pipeline. When the artifact store cannot
// be opened the returned pipeline still works (stages regenerate in
// memory) and the error reports why persistence is off — callers that
// want the store to be load-bearing should fail on it.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.N <= 0 {
		cfg.N = DefaultTraceLen()
	}
	if cfg.Pool == nil {
		cfg.Pool = engine.NewPool(0)
	}
	if cfg.Lookup == nil {
		cfg.Lookup = workload.ByName
	}
	pl := &Pipeline{n: cfg.N, window: cfg.Window, memCfg: mem.DefaultConfig(), lookup: cfg.Lookup}

	pl.traces = engine.NewGroup(cfg.Pool, func(app string) (*trace.Trace, error) {
		prof, ok := pl.lookup(app)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", app)
		}
		return workload.Generate(prof, pl.n), nil
	})
	pl.programs = engine.NewGroup(cfg.Pool, func(app string) (*cpu.Program, error) {
		tr, err := pl.traces.Get(app)
		if err != nil {
			return nil, err
		}
		return cpu.NewProgram(tr, branch.NewFrontEnd().Annotate(tr)), nil
	})
	pl.nextats = engine.NewGroup(cfg.Pool, func(app string) ([]int64, error) {
		prog, err := pl.programs.Get(app)
		if err != nil {
			return nil, err
		}
		return analysis.NextUseArray(prog.Blocks), nil
	})
	pl.datalats = engine.NewGroup(cfg.Pool, func(app string) ([]int16, error) {
		prog, err := pl.programs.Get(app)
		if err != nil {
			return nil, err
		}
		prog.EnsureDataLatencies(pl.memCfg)
		return prog.DataLat, nil
	})
	pl.workloads = engine.NewGroup(cfg.Pool, pl.assemble)
	pl.traces.Name, pl.programs.Name, pl.nextats.Name, pl.datalats.Name, pl.workloads.Name =
		"trace", "program", "nextat", "datalat", "workload"
	pl.traces.Retry = stageRetry()
	pl.programs.Retry = stageRetry()
	pl.nextats.Retry = stageRetry()
	pl.datalats.Retry = stageRetry()
	pl.workloads.Retry = stageRetry()

	var err error
	if cfg.Dir != "" {
		err = pl.openStore(cfg.Dir)
	}
	return pl, err
}

// stageKey returns the content-addressing key function for one stage.
func (pl *Pipeline) stageKey(stage string) func(string) string {
	return func(app string) string {
		prof, ok := pl.lookup(app)
		return storeKeyPrefix(profileDigest(prof, ok, app), pl.n) + "|stage:" + stage
	}
}

// openStore attaches the four stage caches to dir. All artifacts use the
// trace codec's container format with the ".actr" extension, so
// `acic-trace inspect` can describe any file in the store.
func (pl *Pipeline) openStore(dir string) error {
	traces, err := engine.NewCodecDiskCache(dir, ".actr", pl.stageKey("trace"),
		func(t *trace.Trace) ([]byte, error) {
			var b bytes.Buffer
			err := trace.Write(&b, t)
			return b.Bytes(), err
		},
		func(_ string, data []byte) (*trace.Trace, error) {
			return trace.Read(bytes.NewReader(data))
		})
	if err != nil {
		return err
	}
	programs, err := engine.NewCodecDiskCache(dir, ".actr", pl.stageKey("program"),
		encodeProgram, pl.decodeProgram)
	if err != nil {
		return err
	}
	nextats, err := engine.NewCodecDiskCache(dir, ".actr", pl.stageKey("nextat"),
		func(v []int64) ([]byte, error) {
			return encodeSection("nextat", trace.SecNextAt, trace.EncodeInt64sDelta(v))
		},
		func(_ string, data []byte) ([]int64, error) {
			payload, err := decodeSection(data, trace.SecNextAt)
			if err != nil {
				return nil, err
			}
			return trace.DecodeInt64sDelta(payload)
		})
	if err != nil {
		return err
	}
	datalats, err := engine.NewCodecDiskCache(dir, ".actr", pl.stageKey("datalat"),
		func(v []int16) ([]byte, error) {
			return encodeSection("datalat", trace.SecDataLat, trace.EncodeInt16s(v))
		},
		func(_ string, data []byte) ([]int16, error) {
			payload, err := decodeSection(data, trace.SecDataLat)
			if err != nil {
				return nil, err
			}
			return trace.DecodeInt16s(payload)
		})
	if err != nil {
		return err
	}
	pl.traces.Cache = traces
	pl.programs.Cache = programs
	pl.nextats.Cache = nextats
	pl.datalats.Cache = datalats
	pl.traceStore = traces
	pl.programStore = programs
	pl.nextatStore = nextats
	pl.datalatStore = datalats
	return nil
}

// encodeProgram persists the expensive derived arrays of a Program — the
// branch annotations, descriptor bytes, and collapsed block sequence — as
// codec v2 sections. The trace itself lives in the trace-stage artifact;
// MemBlk and the run-ahead bitmap are cheap local recomputes.
func encodeProgram(p *cpu.Program) ([]byte, error) {
	var b bytes.Buffer
	err := trace.WriteContainer(&b, p.Trace.Name, []trace.Section{
		{Tag: trace.SecAnnot, Data: p.AnnotationBytes()},
		{Tag: trace.SecDesc, Data: p.Desc},
		{Tag: trace.SecBlocks, Data: trace.EncodeUint64sDelta(p.Blocks)},
	})
	return b.Bytes(), err
}

// decodeProgram rebuilds a Program from its persisted sections against the
// trace-stage artifact (loaded or regenerated through the trace group).
func (pl *Pipeline) decodeProgram(app string, data []byte) (*cpu.Program, error) {
	tr, err := pl.traces.Get(app)
	if err != nil {
		return nil, err
	}
	_, secs, err := trace.ReadContainer(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	annData, ok := trace.FindSection(secs, trace.SecAnnot)
	if !ok {
		return nil, fmt.Errorf("experiments: program artifact missing %s section", trace.SecAnnot)
	}
	descData, ok := trace.FindSection(secs, trace.SecDesc)
	if !ok {
		return nil, fmt.Errorf("experiments: program artifact missing %s section", trace.SecDesc)
	}
	blkData, ok := trace.FindSection(secs, trace.SecBlocks)
	if !ok {
		return nil, fmt.Errorf("experiments: program artifact missing %s section", trace.SecBlocks)
	}
	ann, err := cpu.AnnotationsFromBytes(annData)
	if err != nil {
		return nil, err
	}
	blocks, err := trace.DecodeUint64sDelta(blkData)
	if err != nil {
		return nil, err
	}
	return cpu.NewProgramFromParts(tr, ann, descData, blocks)
}

// encodeSection wraps one typed payload in a single-section container.
func encodeSection(name, tag string, payload []byte) ([]byte, error) {
	var b bytes.Buffer
	err := trace.WriteContainer(&b, name, []trace.Section{{Tag: tag, Data: payload}})
	return b.Bytes(), err
}

// decodeSection unwraps a single-section container.
func decodeSection(data []byte, tag string) ([]byte, error) {
	_, secs, err := trace.ReadContainer(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	payload, ok := trace.FindSection(secs, tag)
	if !ok {
		return nil, fmt.Errorf("experiments: artifact missing %s section", tag)
	}
	return payload, nil
}

// assemble builds the Workload view over the staged artifacts: the shared
// Program with its adopted latency timeline, the successor array, and the
// in-memory next-use oracle (an index over the block sequence, always
// rebuilt — it is not an artifact).
func (pl *Pipeline) assemble(app string) (*Workload, error) {
	prof, ok := pl.lookup(app)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", app)
	}
	// Windowed mode streams cold preparation; a fully warm store still
	// takes the batch load path below (loading is already cheap and keeps
	// the zero-regeneration warm semantics byte-for-byte identical).
	//
	// A streamed prepare that fails mid-window — panic or error, injected
	// or genuine — degrades to the batch path instead of failing the
	// workload: the two paths produce byte-identical workloads (DESIGN.md
	// §12), so falling back trades the O(window) memory bound for a
	// completed prepare. The aborted stream leaves nothing behind (its
	// partial store entries are discarded under tmp/).
	if pl.window > 0 && !pl.storeWarm(app) {
		w, err := engine.Guard("stream:"+app, false, func() (*Workload, error) {
			return pl.assembleStreamed(app, prof)
		})
		if err == nil {
			return w, nil
		}
		pl.streamFallbacks.Add(1)
	}
	prog, err := pl.programs.Get(app)
	if err != nil {
		return nil, err
	}
	nextAt, err := pl.nextats.Get(app)
	if err != nil {
		return nil, err
	}
	lat, err := pl.datalats.Get(app)
	if err != nil {
		return nil, err
	}
	if err := prog.AdoptDataLatencies(lat, pl.memCfg); err != nil {
		return nil, err
	}
	if len(nextAt) != len(prog.Blocks) {
		return nil, fmt.Errorf("experiments: successor array length %d != %d block accesses", len(nextAt), len(prog.Blocks))
	}
	return &Workload{
		Profile: prof,
		Prog:    prog,
		Trace:   prog.Trace,
		Ann:     prog.Ann,
		Blocks:  prog.Blocks,
		Oracle:  analysis.NewNextUseOracle(prog.Blocks),
		NextAt:  nextAt,
	}, nil
}

// Workload returns the fully prepared workload for an app, materializing
// (or loading) every stage on demand.
func (pl *Pipeline) Workload(app string) (*Workload, error) {
	return pl.workloads.Get(app)
}

// ForgetTransient drops any stage memo for app whose outcome is a
// transient error, so the next demand re-prepares instead of replaying
// the failure. Successful stages and deterministic errors stand. Long-
// lived processes call this when a cell fails transiently: the failure
// may live in the prepare pipeline rather than the cell compute, and
// forgetting only the cell would replay the poisoned stage forever.
func (pl *Pipeline) ForgetTransient(app string) bool {
	dropped := pl.workloads.ForgetTransient(app)
	dropped = pl.traces.ForgetTransient(app) || dropped
	dropped = pl.programs.ForgetTransient(app) || dropped
	dropped = pl.nextats.ForgetTransient(app) || dropped
	dropped = pl.datalats.ForgetTransient(app) || dropped
	return dropped
}

// ForgetAllTransient sweeps transiently failed memos from every stage
// for every app, returning how many entries were dropped.
func (pl *Pipeline) ForgetAllTransient() int {
	n := pl.workloads.ForgetAllTransient()
	n += pl.traces.ForgetAllTransient()
	n += pl.programs.ForgetAllTransient()
	n += pl.nextats.ForgetAllTransient()
	n += pl.datalats.ForgetAllTransient()
	return n
}

// Require prepares the named workloads in parallel on the pool,
// deduplicated against earlier work. Must not be called from inside a
// pool task (use Workload, which computes inline).
func (pl *Pipeline) Require(apps ...string) error {
	return pl.workloads.Require(apps...)
}

// Warm materializes all four stage artifacts for the named apps without
// assembling workloads — the `acic-trace warm` path that fills the store
// for later runs. Every stage is attempted for every app. The two leaf
// stages are required concurrently (both transitively materialize trace
// and program, deduplicated by singleflight), so one app's successor
// array never waits on another app's data-hierarchy replay.
func (pl *Pipeline) Warm(apps ...string) error {
	if pl.window > 0 {
		// Streamed preparation produces all four artifacts in one fused
		// pass per workload, so warming is just requiring the workloads.
		return pl.workloads.Require(apps...)
	}
	var wg sync.WaitGroup
	var dlErr, naErr error
	wg.Add(2)
	go func() { defer wg.Done(); dlErr = pl.datalats.Require(apps...) }()
	go func() { defer wg.Done(); naErr = pl.nextats.Require(apps...) }()
	wg.Wait()
	if dlErr != nil {
		return dlErr
	}
	return naErr
}

// StageNames lists the pipeline stages in dependency order.
func StageNames() []string { return []string{"trace", "program", "nextat", "datalat"} }

// StageStats reports one stage's engine counters: artifacts regenerated by
// its compute function vs. served from the persistent store.
type StageStats struct {
	Stage     string `json:"stage"`
	Computed  int64  `json:"computed"`
	FromStore int64  `json:"from_store"`
}

// Stats returns per-stage counters in dependency order. A warm store shows
// Computed == 0 on every stage; that is what "skipping the prepare phase"
// means and what the regression tests assert.
func (pl *Pipeline) Stats() []StageStats {
	stats := []StageStats{
		{"trace", pl.traces.Computed(), pl.traces.CacheHits()},
		{"program", pl.programs.Computed(), pl.programs.CacheHits()},
		{"nextat", pl.nextats.Computed(), pl.nextats.CacheHits()},
		{"datalat", pl.datalats.Computed(), pl.datalats.CacheHits()},
	}
	if pl.window > 0 {
		stats = append(stats, StageStats{Stage: "streamed", Computed: pl.streamed.Load()})
	}
	return stats
}

// Streamed returns how many workloads were prepared through the fused
// windowed pipeline (always 0 in batch mode or on a warm store).
func (pl *Pipeline) Streamed() int64 { return pl.streamed.Load() }

// StreamFallbacks returns how many streamed prepares failed mid-window
// and degraded to the batch path.
func (pl *Pipeline) StreamFallbacks() int64 { return pl.streamFallbacks.Load() }

// Retries returns the total extra compute attempts the stage and workload
// groups spent recovering transient failures.
func (pl *Pipeline) Retries() int64 {
	return pl.traces.Retries() + pl.programs.Retries() + pl.nextats.Retries() +
		pl.datalats.Retries() + pl.workloads.Retries()
}

// Quarantined returns how many undecodable artifacts the stage stores
// moved to quarantine/ (0 when no store is configured).
func (pl *Pipeline) Quarantined() int64 {
	if pl.traceStore == nil {
		return 0
	}
	return pl.traceStore.Quarantined() + pl.programStore.Quarantined() +
		pl.nextatStore.Quarantined() + pl.datalatStore.Quarantined()
}

// Regenerated returns the total number of stage artifacts produced by
// compute functions (0 on a fully warm store).
func (pl *Pipeline) Regenerated() int64 {
	var total int64
	for _, st := range pl.Stats() {
		total += st.Computed
	}
	return total
}

// WorkloadsPrepared returns how many workloads this pipeline assembled.
func (pl *Pipeline) WorkloadsPrepared() int64 { return pl.workloads.Computed() }
