package experiments

import (
	"bytes"
	"errors"
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

// Pipeline prepares workloads: each app's four stages,
//
//	trace   — synthetic trace generation (workload.Generate)
//	program — branch-predictor replay + descriptor derivation (cpu.Program)
//	nextat  — next-use successor array (analysis.NextUseArray)
//	datalat — data-side latency timeline (Program.EnsureDataLatencies)
//
// are memoized per app with singleflight and, when a store directory is
// configured, persisted as one workload artifact: a trace-codec v2
// container holding the trace's INSZ windows followed by the ANNO, DESC,
// BLKS, NXTA and DLAT sections. The artifact key shares the result cache's
// derivation (keys.go: schema version, simulator-config digest, profile
// digest, trace length), so a config edit invalidates prepared artifacts
// and cached results together.
//
// A workload is loaded from the store when its artifact decodes and
// passes every consistency check; otherwise it is prepared cold by the
// fused windowed pass (stream.go), which rewrites it. The artifact is
// best-effort: an unreadable, truncated, corrupt, or version-mismatched
// entry is a miss (quarantined when it reads but fails to decode), so the
// store can only make preparation faster, never wrong.
//
// Concurrent workers in one process share a single preparation per app
// through the group's singleflight; concurrent processes share through the
// store's atomic temp-file-and-rename writes.
type Pipeline struct {
	n       int
	window  int // instructions per cold-prepare window (prepareWindow)
	memCfg  mem.Config
	pool    *engine.Pool
	simOnly bool // PipelineConfig.simOnly

	workloads *engine.Group[string, *Workload]

	// store holds one workload artifact per app; nil when no store is
	// configured. It is read through Load and written only by the cold
	// pass's streamed entry (BeginStream), so it carries no encoder.
	store *engine.DiskCache[string, *Workload]

	cold atomic.Int64 // apps prepared by the windowed pass
	warm atomic.Int64 // apps the store served (loaded, or found by Warm)
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
	// simOnly makes every workload carry only simulator state: no
	// Trace.Insts, Prog.MemBlk, Prog.DataLat, annotations or NextAt. A
	// store load never decodes the whole trace nor builds those arrays
	// (it checks their payloads in place), and a cold prepare drops its
	// successor array once the NXTA section is written. A Suite sets it:
	// none of its cells or renderers reads those arrays (the oracle
	// schemes read next uses from Workload.Oracle), and a warm load would
	// otherwise build each app's Inst records (32 B/inst) and MemBlk (8
	// B/inst) only to drop them, and keep NextAt (8 B/access), DataLat (2
	// B/inst) and the annotations (1 B/inst) resident for the whole run.
	// NewPipeline callers that digest or compare those arrays (store
	// tooling, the pipeline tests, perfbench) leave it off and read them
	// from a store load or a cold prepare.
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
	pl := &Pipeline{n: cfg.N, window: prepareWindow, memCfg: mem.DefaultConfig(), pool: cfg.Pool, simOnly: cfg.simOnly}
	pl.workloads = engine.NewGroup(cfg.Pool, pl.prepare)
	pl.workloads.Name = "workload"
	// Transient failures (injected faults, MarkTransient-wrapped errors)
	// are re-attempted with jittered backoff; deterministic ones — a bad
	// profile, a genuine panic in derivation — fail the app at once. A
	// failed attempt leaves no artifact behind, so re-entry is safe.
	pl.workloads.Retry = engine.DefaultRetry()

	var err error
	if cfg.Dir != "" {
		// Every artifact uses the trace codec's container format with the
		// ".actr" extension, so `acic-trace inspect` can describe any file
		// in the store.
		pl.store, err = engine.NewCodecDiskCache(cfg.Dir, ".actr", pl.storeKey, nil,
			func(data []byte) (*Workload, error) { return decodeWorkload(data, pl.memCfg, cfg.simOnly) })
	}
	return pl, err
}

// unknownName is the error an app or cell fails with when it names an
// app, scheme or prefetcher that no registry holds. The failure is
// deterministic and cheap to reach again, so the memos forget it
// (IsUnknownName) instead of keeping one entry for every name a client
// invents.
type unknownName struct{ kind, name string }

func (e unknownName) Error() string { return fmt.Sprintf("experiments: unknown %s %q", e.kind, e.name) }

// IsUnknownName reports whether err is such a failure: a cell or app that
// names an app, scheme or prefetcher no registry holds.
func IsUnknownName(err error) bool { return errors.As(err, new(unknownName)) }

// storeKey is app's content-addressing key in the artifact store.
func (pl *Pipeline) storeKey(app string) string {
	return storeKeyPrefix(profileDigest(app), pl.n) + "|stage:workload"
}

// workloadSections are the derived sections a workload artifact carries
// after its INSZ windows, in write order.
var workloadSections = []string{trace.SecAnnot, trace.SecDesc, trace.SecBlocks, trace.SecNextAt, trace.SecDataLat}

// decodeWorkload rebuilds a workload, all but its Profile, from its
// artifact. Every check a load makes runs here, so any failure quarantines
// the one entry: the section CRCs, the decode of every INSZ window, the
// annotation and descriptor lengths and block count against the
// instruction count and the annotations against the descriptors
// (cpu.NewProgramFromParts), the successor array's encoding and length
// against the blocks, and the latency timeline against the program and
// the hierarchy's levels (AdoptDataLatencies). The run-ahead bitmap is a
// cheap local recompute.
//
// simOnly decodes the windows one at a time into one reused buffer
// (trace.CountInsts) and keeps no Inst records, so the Program has no
// MemBlk, and it checks the ANNO, NXTA and DLAT payloads in place without
// building their arrays: the descriptors carry each redirect and data
// level, and the simulators read next uses from the oracle. Otherwise the
// trace is decoded whole, MemBlk recomputed from it, and the annotations,
// successor array and latency timeline decoded and kept. Both accept and
// refuse the same inputs and build the same descriptors and blocks.
func decodeWorkload(data []byte, memCfg mem.Config, simOnly bool) (*Workload, error) {
	// Sections alias data; only the descriptors are kept as they are, so
	// only they are copied.
	name, secs, err := trace.ParseContainer(data)
	if err != nil {
		return nil, err
	}
	var insts []trace.Inst
	var n int
	if simOnly {
		n, err = trace.CountInsts(secs)
	} else {
		insts, err = trace.InstsFromSections(secs)
		n = len(insts)
	}
	if err != nil {
		return nil, err
	}
	var payload [5][]byte
	for i, tag := range workloadSections {
		var ok bool
		if payload[i], ok = trace.FindSection(secs, tag); !ok {
			return nil, fmt.Errorf("experiments: workload artifact missing %s section", tag)
		}
	}
	blocks, err := trace.DecodeUint64sDelta(payload[2])
	if err != nil {
		return nil, err
	}
	prog, err := cpu.NewProgramFromParts(&trace.Trace{Name: name, Insts: insts}, n, payload[0], bytes.Clone(payload[1]), blocks)
	if err != nil {
		return nil, err
	}
	var nextAt []int64
	var successors int
	if simOnly {
		successors, err = trace.CountInt64sDelta(payload[3])
	} else {
		nextAt, err = trace.DecodeInt64sDelta(payload[3])
		successors = len(nextAt)
	}
	if err != nil {
		return nil, err
	}
	if successors != len(prog.Blocks) {
		return nil, fmt.Errorf("experiments: successor array length %d != %d block accesses", successors, len(prog.Blocks))
	}
	if err := prog.AdoptDataLatencies(payload[4], memCfg); err != nil {
		return nil, err
	}
	if !simOnly {
		// The checks above passed, so neither decode can fail.
		if prog.Ann, err = cpu.AnnotationsFromBytes(payload[0]); err != nil {
			return nil, err
		}
		if prog.DataLat, err = trace.DecodeInt16s(payload[4]); err != nil {
			return nil, err
		}
	}
	return newWorkload(workload.Profile{}, prog, nextAt), nil
}

// newWorkload builds the Workload view over a finished Program and its
// successor array (nil on a Suite's workloads), adding the in-memory
// next-use oracle (an index over the block sequence, always rebuilt — it
// is not an artifact).
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

// prepare is the workload group's compute: load app from the store (a
// simOnly pipeline's load keeps only simulator state, see
// decodeWorkload), or prepare it cold through the windowed pass, which
// always does.
func (pl *Pipeline) prepare(app string) (*Workload, error) {
	prof, ok := workload.ByName(app)
	if !ok {
		return nil, unknownName{"workload", app}
	}
	var w *Workload
	if pl.store != nil {
		w, _ = pl.store.Load(app) // nil on a miss
	}
	if w != nil {
		w.Profile = prof
		pl.warm.Add(1)
	} else {
		var err error
		if w, err = pl.stream(app, prof); err != nil {
			return nil, err
		}
		pl.cold.Add(1)
	}
	return w, nil
}

// stored reports whether the store holds app's artifact. It is an
// existence check only: Warm uses it to decide whether an app can be
// dropped from memory and reloaded later.
func (pl *Pipeline) stored(app string) bool {
	return pl.store != nil && pl.store.Has(app)
}

// Workload returns the fully prepared workload for an app, loading or
// preparing it on demand. Outside a Suite, a workload loaded from the
// store carries its Inst records, annotations, data-block array, latency
// timeline and successor array. One prepared cold carries none of the
// first four, in or outside a Suite: its descriptors hold the redirects
// and data levels, from which the store's ANNO and DLAT sections were
// derived. In a Suite no workload carries a successor array either.
func (pl *Pipeline) Workload(app string) (*Workload, error) {
	w, err := pl.workloads.Get(app)
	if err != nil {
		pl.workloads.ForgetIf(app, IsUnknownName)
	}
	return w, err
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
	err := pl.workloads.Require(apps...)
	if err != nil {
		for _, app := range apps {
			pl.workloads.ForgetIf(app, IsUnknownName)
		}
	}
	return err
}

// Warm fills the store with the workload artifacts of the named apps — the
// `acic-trace warm` path that prepares the store for later runs. It runs
// one pool task per app, and every app is attempted even if some fail;
// the error of the first failing app in argument order is returned.
//
// Warm persists, then releases: once the store holds an app's artifact,
// the app's memo is dropped, so Warm's peak memory is O(workers × one
// app) rather than O(apps); a later Workload(app) loads from the store,
// byte-identical by its contract. An app whose artifact the store already
// holds is counted as served by the store and not loaded: decoding it whole only to drop it would make a warm
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
		_, err := pl.Workload(apps[i])
		if err == nil && pl.stored(apps[i]) {
			pl.workloads.Forget(apps[i])
		}
		return err
	})
}

// StageNames lists the pipeline stages in dependency order.
func StageNames() []string { return []string{"trace", "program", "nextat", "datalat"} }

// StageStats reports one stage's counters: apps whose stage was
// regenerated vs. served from the persistent store.
type StageStats struct {
	Stage     string `json:"stage"`
	Computed  int64  `json:"computed"`
	FromStore int64  `json:"from_store"`
}

// Stats returns per-stage counters in dependency order. An app is either
// prepared cold, which computes every stage and writes its artifact, or
// served whole by the store (loaded, or found by Warm), so every row reads
// the same two counts. A warm store shows Computed == 0 on every stage; that is what "skipping the prepare
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

// Quarantined returns how many undecodable artifacts the store moved to
// quarantine/ (0 when no store is configured).
func (pl *Pipeline) Quarantined() int64 {
	if pl.store == nil {
		return 0
	}
	return pl.store.Quarantined()
}

// Regenerated returns the number of stages cold prepares computed: one
// per stage for every app prepared cold (0 on a fully warm store).
func (pl *Pipeline) Regenerated() int64 {
	return int64(len(StageNames())) * pl.cold.Load()
}

// WorkloadsPrepared returns how many workloads this pipeline prepared or
// loaded.
func (pl *Pipeline) WorkloadsPrepared() int64 { return pl.workloads.Computed() }
