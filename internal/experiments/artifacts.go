package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"

	"acic/internal/analysis"
	"acic/internal/cpu"
	"acic/internal/experiments/engine"
	"acic/internal/mem"
	"acic/internal/trace"
	"acic/internal/workload"
)

// prepareWindow is how many instructions the cold prepare (stream.go)
// advances per window. Warming the 15 profiles at 1.6M instructions on 2
// CPUs, a 65,536-instruction window took 2.25 s median against 2.61 s for
// the whole-trace pass it replaced, at 132–140 MB instead of 359–453 MB
// peak RSS; windows of 16,384 and 262,144 both ran in about 2.1 s, so the
// size is a constant rather than a setting.
const prepareWindow = 1 << 16

// Pipeline prepares workloads: each app's four artifacts,
//
//	trace   — synthetic trace generation (workload.Generate)
//	program — branch-predictor replay + descriptor derivation (cpu.Program)
//	nextat  — next-use successor array (analysis.NextUseArray)
//	datalat — data-side latency timeline (Program.EnsureDataLatencies)
//
// are memoized per app with singleflight and, when a store directory is
// configured, persisted through the trace codec's v2 container format
// (sections INSZ / ANNO+DESC+BLKS / NXTA / DLAT). Artifact keys share the
// result cache's derivation (keys.go: schema version, simulator-config
// digest, profile digest, trace length), so a config edit invalidates
// prepared artifacts and cached results together.
//
// A workload is loaded from the store when all four artifacts decode;
// otherwise it is prepared cold by the fused windowed pass (stream.go),
// which rewrites all four. Artifacts are best-effort: an unreadable,
// truncated, corrupt, or version-mismatched entry is a miss (quarantined
// when it reads but fails to decode), so the store can only make
// preparation faster, never wrong.
//
// Concurrent workers in one process share a single preparation per app
// through the group's singleflight; concurrent processes share through the
// store's atomic temp-file-and-rename writes.
type Pipeline struct {
	n      int
	window int // instructions per cold-prepare window (prepareWindow)
	memCfg mem.Config
	lookup func(string) (workload.Profile, bool)
	pool   *engine.Pool

	workloads *engine.Group[string, *Workload]

	// Typed artifact stores, all nil when no store is configured. They
	// are read through Load and written only by the cold pass's streamed
	// entries (BeginStream), so they carry no encoders.
	traceStore   *engine.DiskCache[string, *trace.Trace]
	programStore *engine.DiskCache[programKey, *cpu.Program]
	nextatStore  *engine.DiskCache[string, []int64]
	datalatStore *engine.DiskCache[string, []int16]

	// simOnly drops what the simulator does not read from every workload
	// handed out (see simOnly's PipelineConfig field).
	simOnly bool

	cold atomic.Int64 // apps prepared by the windowed pass
	warm atomic.Int64 // apps the store served (loaded, or found complete by Warm)
}

// programKey names an app's program artifact and carries the trace the
// program decodes against; only app enters the store key.
type programKey struct {
	app string
	tr  *trace.Trace
}

// PipelineConfig configures NewPipeline.
type PipelineConfig struct {
	// N is the trace length in instructions (0 = DefaultTraceLen).
	N int
	// Dir enables the on-disk artifact store in that directory ("" =
	// in-memory memoization only).
	Dir string
	// Pool executes batch work (Warm, Require); nil creates a default
	// pool. Demand-driven preparation (Workload) runs inline on the
	// calling goroutine either way.
	Pool *engine.Pool
	// Lookup resolves app names to profiles (nil = workload.ByName).
	Lookup func(string) (workload.Profile, bool)

	// simOnly makes every workload carry only simulator state: no
	// Trace.Insts and no Prog.MemBlk. A Suite sets it: none of its cells
	// or renderers reads either, and a warm load would otherwise keep each
	// app's decoded Inst records (32 B/inst) and MemBlk (8 B/inst)
	// resident for the whole run. NewPipeline callers that digest or
	// compare those arrays (store tooling, the pipeline tests) leave it
	// off.
	simOnly bool
}

// NewPipeline builds the pipeline. When the artifact store cannot be
// opened the returned pipeline still works (apps are prepared in memory)
// and the error reports why persistence is off — callers that want the
// store to be load-bearing should fail on it.
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
	pl := &Pipeline{n: cfg.N, window: prepareWindow, memCfg: mem.DefaultConfig(), lookup: cfg.Lookup, pool: cfg.Pool, simOnly: cfg.simOnly}
	pl.workloads = engine.NewGroup(cfg.Pool, pl.prepare)
	pl.workloads.Name = "workload"
	// Transient failures (injected faults, MarkTransient-wrapped errors)
	// are re-attempted with jittered backoff; deterministic ones — a bad
	// profile, a genuine panic in derivation — fail the app at once. A
	// failed attempt leaves no artifact behind, so re-entry is safe.
	pl.workloads.Retry = engine.DefaultRetry()

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

// openStore attaches the four artifact stores to dir. All artifacts use
// the trace codec's container format with the ".actr" extension, so
// `acic-trace inspect` can describe any file in the store.
func (pl *Pipeline) openStore(dir string) error {
	traces, err := engine.NewCodecDiskCache(dir, ".actr", pl.stageKey("trace"), nil,
		func(_ string, data []byte) (*trace.Trace, error) {
			return trace.Read(bytes.NewReader(data))
		})
	if err != nil {
		return err
	}
	progKey := pl.stageKey("program")
	programs, err := engine.NewCodecDiskCache(dir, ".actr",
		func(k programKey) string { return progKey(k.app) }, nil, decodeProgram)
	if err != nil {
		return err
	}
	nextats, err := engine.NewCodecDiskCache(dir, ".actr", pl.stageKey("nextat"), nil,
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
	datalats, err := engine.NewCodecDiskCache(dir, ".actr", pl.stageKey("datalat"), nil,
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
	pl.traceStore, pl.programStore, pl.nextatStore, pl.datalatStore = traces, programs, nextats, datalats
	return nil
}

// decodeProgram rebuilds a Program from its persisted sections — branch
// annotations, descriptor bytes, collapsed block sequence — against the
// key's trace. MemBlk and the run-ahead bitmap are cheap local recomputes.
func decodeProgram(k programKey, data []byte) (*cpu.Program, error) {
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
	return cpu.NewProgramFromParts(k.tr, ann, descData, blocks)
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

// newWorkload builds the Workload view over a finished Program and its
// successor array, adding the in-memory next-use oracle (an index over
// the block sequence, always rebuilt — it is not an artifact).
func newWorkload(prof workload.Profile, prog *cpu.Program, nextAt []int64) *Workload {
	return &Workload{
		Profile: prof,
		Prog:    prog,
		Trace:   prog.Trace,
		Ann:     prog.Ann,
		Blocks:  prog.Blocks,
		Oracle:  analysis.NewNextUseOracle(prog.Blocks),
		NextAt:  nextAt,
	}
}

// prepare is the workload group's compute: load app from the store, or
// prepare it cold through the windowed pass. A simOnly pipeline then
// drops the Inst records and the data-block array: the latency timeline
// is installed by then, so EnsureDataLatencies never reads MemBlk again.
func (pl *Pipeline) prepare(app string) (*Workload, error) {
	prof, ok := pl.lookup(app)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", app)
	}
	w := pl.load(app, prof)
	if w != nil {
		pl.warm.Add(1)
	} else {
		var err error
		if w, err = pl.stream(app, prof); err != nil {
			return nil, err
		}
		pl.cold.Add(1)
	}
	if pl.simOnly {
		w.Prog.Trace = &trace.Trace{Name: w.Prog.Trace.Name}
		w.Trace = w.Prog.Trace
		w.Prog.MemBlk = nil
	}
	return w, nil
}

// load reads app's four artifacts in dependency order — the trace, the
// program sections against it, the successor array, the latency timeline
// — and returns nil when there is no store or any of them is missing,
// undecodable (DiskCache.Load quarantines it), or inconsistent with the
// others. The cold pass then rewrites all four.
func (pl *Pipeline) load(app string, prof workload.Profile) *Workload {
	if pl.traceStore == nil {
		return nil
	}
	tr, ok := pl.traceStore.Load(app)
	if !ok {
		return nil
	}
	prog, ok := pl.programStore.Load(programKey{app, tr})
	if !ok {
		return nil
	}
	nextAt, ok := pl.nextatStore.Load(app)
	if !ok || len(nextAt) != len(prog.Blocks) {
		return nil
	}
	lat, ok := pl.datalatStore.Load(app)
	if !ok || prog.AdoptDataLatencies(lat, pl.memCfg) != nil {
		return nil
	}
	return newWorkload(prof, prog, nextAt)
}

// stored reports whether every artifact for app exists in the store. It
// is an existence check only: Warm uses it to decide whether an app can
// be dropped from memory and reloaded later.
func (pl *Pipeline) stored(app string) bool {
	return pl.traceStore != nil &&
		pl.traceStore.Has(app) && pl.programStore.Has(programKey{app: app}) &&
		pl.nextatStore.Has(app) && pl.datalatStore.Has(app)
}

// Workload returns the fully prepared workload for an app, loading or
// preparing it on demand. Outside a Suite, a workload loaded from the
// store carries its Inst records and data-block array, and one prepared
// cold carries the data-block array but no Inst records.
func (pl *Pipeline) Workload(app string) (*Workload, error) {
	return pl.workloads.Get(app)
}

// ForgetTransient drops app's memo when its outcome is a transient error,
// so the next demand re-prepares instead of replaying the failure.
// Successes and deterministic errors stand. Long-lived processes call
// this when a cell fails transiently: the failure may live in the prepare
// rather than the cell compute, and forgetting only the cell would replay
// the poisoned prepare forever.
func (pl *Pipeline) ForgetTransient(app string) bool {
	return pl.workloads.ForgetTransient(app)
}

// ForgetAllTransient sweeps transiently failed memos for every app,
// returning how many were dropped.
func (pl *Pipeline) ForgetAllTransient() int {
	return pl.workloads.ForgetAllTransient()
}

// Require prepares the named workloads in parallel on the pool,
// deduplicated against earlier work. Must not be called from inside a
// pool task (use Workload, which computes inline).
func (pl *Pipeline) Require(apps ...string) error {
	return pl.workloads.Require(apps...)
}

// Warm fills the store with all four artifacts of the named apps — the
// `acic-trace warm` path that prepares the store for later runs. It runs
// one pool task per app, and every app is attempted even if some fail;
// the error of the first failing app in argument order is returned.
//
// Warm persists, then releases: once the store holds all four of an
// app's artifacts, the app's memo is dropped, so Warm's peak memory is
// O(workers × one app) rather than O(apps); a later Workload(app) loads
// from the store, byte-identical by its contract. An app whose four
// artifacts the store already holds is counted as served by the store
// and not loaded: decoding it whole only to drop it would make a warm
// over a warm store cost most of a load of every app. Without a store,
// or when a best-effort store write failed, the memo is kept and Warm
// means "prepare in memory". Like Require, Warm must not be called from
// inside a pool task.
func (pl *Pipeline) Warm(apps ...string) error {
	// A repeated app would be prepared again by its second task once the
	// first released it, so each app runs once, in first-mention order.
	seen := make(map[string]bool, len(apps))
	apps = slices.DeleteFunc(slices.Clone(apps), func(app string) bool {
		dup := seen[app]
		seen[app] = true
		return dup
	})
	return pl.pool.Each(len(apps), func(i int) error {
		if pl.stored(apps[i]) {
			pl.warm.Add(1)
			return nil
		}
		_, err := pl.workloads.Get(apps[i])
		if err == nil && pl.stored(apps[i]) {
			pl.workloads.Forget(apps[i])
		}
		return err
	})
}

// StageNames lists the pipeline stages in dependency order.
func StageNames() []string { return []string{"trace", "program", "nextat", "datalat"} }

// StageStats reports one stage's counters: artifacts regenerated vs.
// served from the persistent store.
type StageStats struct {
	Stage     string `json:"stage"`
	Computed  int64  `json:"computed"`
	FromStore int64  `json:"from_store"`
}

// Stats returns per-stage counters in dependency order. An app is either
// prepared cold, which writes all four artifacts, or served with all four
// by the store (loaded, or found complete by Warm), so every row reads the
// same two counts. A warm store
// shows Computed == 0 on every stage; that is what "skipping the prepare
// phase" means and what the regression tests assert.
func (pl *Pipeline) Stats() []StageStats {
	cold, warm := pl.cold.Load(), pl.warm.Load()
	var stats []StageStats
	for _, stage := range StageNames() {
		stats = append(stats, StageStats{stage, cold, warm})
	}
	return stats
}

// Retries returns the extra prepare attempts spent recovering transient
// failures.
func (pl *Pipeline) Retries() int64 { return pl.workloads.Retries() }

// Quarantined returns how many undecodable artifacts the stores moved to
// quarantine/ (0 when no store is configured).
func (pl *Pipeline) Quarantined() int64 {
	if pl.traceStore == nil {
		return 0
	}
	return pl.traceStore.Quarantined() + pl.programStore.Quarantined() +
		pl.nextatStore.Quarantined() + pl.datalatStore.Quarantined()
}

// Regenerated returns the total number of artifacts produced by cold
// prepares (0 on a fully warm store).
func (pl *Pipeline) Regenerated() int64 {
	return int64(len(StageNames())) * pl.cold.Load()
}

// WorkloadsPrepared returns how many workloads this pipeline prepared or
// loaded.
func (pl *Pipeline) WorkloadsPrepared() int64 { return pl.workloads.Computed() }
