package experiments

import (
	"fmt"
	"strconv"

	"acic/internal/analysis"
	"acic/internal/cpu"
	"acic/internal/experiments/engine"
	"acic/internal/faults"
	"acic/internal/trace"
	"acic/internal/workload"
)

// storeWarm reports whether every stage artifact for app already exists on
// disk, in which case the batch load path is both cheapest and provably
// identical. Existence is a routing hint only — if any entry turns out
// corrupt, the batch path's Load treats it as a miss and regenerates.
func (pl *Pipeline) storeWarm(app string) bool {
	return pl.traceStore != nil &&
		pl.traceStore.Has(app) && pl.programStore.Has(app) &&
		pl.nextatStore.Has(app) && pl.datalatStore.Has(app)
}

// assembleStreamed is the fused cold-prepare pass: one windowed walk
// drives generation (workload.GenerateStream), branch annotation and
// descriptor/latency derivation (cpu.ProgramBuilder), the successor array
// (analysis.NextUseBuilder), and — when a store is configured — the trace
// artifact, written section by section through a ContainerWriter so the
// full instruction image never exists in memory. Peak residency is
// O(window) Inst records plus the per-instruction byte/array state the
// simulator needs anyway.
//
// Every artifact this writes is byte-identical to the batch path's: the
// generator, the front end, and the data hierarchy are all sequential
// state machines, so per-window feeding equals the whole-trace pass, and
// the forward last-seen patching in NextUseBuilder equals the backward
// NextUseArray sweep (pinned by the per-layer differential tests and
// TestPipelineStreamedMatchesBatch).
//
// The stage groups are deliberately not involved: their compute functions
// are whole-trace by construction, and Fulfill-ing them would require the
// materialized instruction slice this path exists to avoid. Their
// counters therefore stay zero in streamed mode; Stats reports a separate
// "streamed" row instead.
func (pl *Pipeline) assembleStreamed(app string, prof workload.Profile) (*Workload, error) {
	builder := cpu.NewProgramBuilder(prof.Name, pl.memCfg, pl.n)
	nextUse := analysis.NewNextUseBuilder(pl.n / 8)
	stream := workload.GenerateStream(prof, pl.n, pl.window)

	// Best-effort streaming write of the trace artifact: a failure at any
	// point aborts persistence (a later run regenerates it) but never the
	// preparation itself. The deferred Abort is panic insurance — if this
	// pass dies mid-window (the workload group's guard converts that into
	// a batch fallback), the half-written entry is discarded rather than
	// left in flight; Abort is a no-op on nil and after Commit.
	var entry *engine.StreamEntry
	var cw *trace.ContainerWriter
	defer func() { entry.Abort() }()
	if pl.traceStore != nil {
		if e, ok := pl.traceStore.BeginStream(app); ok {
			if w, err := trace.NewContainerWriter(e.F, prof.Name); err == nil {
				entry, cw = e, w
			} else {
				e.Abort()
			}
		}
	}

	for i, chunk := 0, stream.Next(); chunk != nil; i, chunk = i+1, stream.Next() {
		faults.PanicPoint("stream-window", app+"/"+strconv.Itoa(i))
		if cw != nil {
			if err := cw.WriteSection(trace.SecInstsZ, trace.EncodeInstsPacked(chunk)); err != nil {
				entry.Abort()
				entry, cw = nil, nil
			}
		}
		nextUse.Append(builder.Append(chunk))
	}
	if cw != nil {
		if err := cw.Close(); err != nil {
			entry.Abort()
		} else {
			entry.Commit()
		}
	}

	prog := builder.Finish()
	nextAt := nextUse.Finish()
	if len(nextAt) != len(prog.Blocks) {
		return nil, fmt.Errorf("experiments: streamed successor array length %d != %d block accesses", len(nextAt), len(prog.Blocks))
	}
	// Persist the derived artifacts so later runs (batch or streamed) load
	// instead of regenerating; same best-effort contract as the groups'
	// write-back. Sections stream to the entry files one at a time — the
	// batch path's Store would assemble each whole container in memory,
	// which at this point would sit on top of the finished Program and
	// dominate the peak the windowed walk just avoided.
	if pl.programStore != nil {
		streamArtifact(pl.programStore, app, prof.Name,
			func() (string, []byte) { return trace.SecAnnot, prog.AnnotationBytes() },
			func() (string, []byte) { return trace.SecDesc, prog.Desc },
			func() (string, []byte) { return trace.SecBlocks, trace.EncodeUint64sDelta(prog.Blocks) })
		streamArtifact(pl.nextatStore, app, "nextat",
			func() (string, []byte) { return trace.SecNextAt, trace.EncodeInt64sDelta(nextAt) })
		streamArtifact(pl.datalatStore, app, "datalat",
			func() (string, []byte) { return trace.SecDataLat, trace.EncodeInt16s(prog.DataLat) })
	}
	pl.streamed.Add(1)
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

// streamArtifact writes one artifact container straight to a store entry
// file, materializing each section payload only while it is being written
// (the sections are closures so encodings never coexist). Content matches
// what the store's batch encoder would have produced — single-section
// containers for the array stages, the three-section program container —
// so either path reads either path's entries. Best-effort like Store: any
// failure aborts the entry and the artifact is simply regenerated later.
func streamArtifact[V any](c *engine.DiskCache[string, V], app, name string, sections ...func() (string, []byte)) {
	e, ok := c.BeginStream(app)
	if !ok {
		return
	}
	cw, err := trace.NewContainerWriter(e.F, name)
	if err != nil {
		e.Abort()
		return
	}
	for _, section := range sections {
		tag, payload := section()
		if err := cw.WriteSection(tag, payload); err != nil {
			e.Abort()
			return
		}
	}
	if err := cw.Close(); err != nil {
		e.Abort()
		return
	}
	e.Commit()
}
