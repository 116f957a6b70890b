package experiments

import (
	"fmt"

	"acic/internal/analysis"
	"acic/internal/cpu"
	"acic/internal/experiments/engine"
	"acic/internal/trace"
	"acic/internal/workload"
)

// stream is the cold prepare: one windowed walk drives generation
// (workload.GenerateStream), branch annotation and descriptor/latency
// derivation (cpu.ProgramBuilder), the successor array
// (analysis.NextUseBuilder), and — when a store is configured — the trace
// artifact, written one INSZ section per window through a ContainerWriter
// so the full instruction image never exists in memory. Peak residency is
// O(window) Inst records plus the per-instruction byte/array state the
// simulator needs anyway; the returned workload carries no Inst records
// (a later load from the store does).
//
// The generator, the front end, and the data hierarchy are all sequential
// state machines, so per-window feeding equals the whole-trace pass of
// Prepare, and the forward last-seen patching in NextUseBuilder equals the
// backward NextUseArray sweep (pinned by the per-layer differential tests
// and TestPipelineStreamedMatchesBatch).
func (pl *Pipeline) stream(app string, prof workload.Profile) (*Workload, error) {
	builder := cpu.NewProgramBuilder(prof.Name, pl.memCfg, pl.n)
	nextUse := analysis.NewNextUseBuilder(pl.n / 8)
	// The trace artifact takes one section per window, so the window grows
	// with n past trace.MaxSections windows to keep the artifact readable.
	window := max(pl.window, (pl.n+trace.MaxSections-1)/trace.MaxSections)
	stream := workload.GenerateStream(prof, pl.n, window)

	// Best-effort streaming write of the trace artifact: a failure at any
	// point aborts persistence (a later run regenerates it) but never the
	// preparation itself. The deferred Abort is panic insurance — if this
	// pass dies mid-window (one failed attempt of the workload group), the
	// half-written entry is discarded rather than left in flight; Abort is
	// a no-op on nil and after Commit.
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

	for chunk := stream.Next(); chunk != nil; chunk = stream.Next() {
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
	// Persist the derived artifacts so later runs load instead of
	// regenerating. Sections stream to the entry files one at a time:
	// assembling each whole container in memory would sit on top of the
	// finished Program and dominate the peak the windowed walk avoided.
	if pl.programStore != nil {
		streamArtifact(pl.programStore, programKey{app: app}, prof.Name,
			func() (string, []byte) { return trace.SecAnnot, prog.AnnotationBytes() },
			func() (string, []byte) { return trace.SecDesc, prog.Desc },
			func() (string, []byte) { return trace.SecBlocks, trace.EncodeUint64sDelta(prog.Blocks) })
		streamArtifact(pl.nextatStore, app, "nextat",
			func() (string, []byte) { return trace.SecNextAt, trace.EncodeInt64sDelta(nextAt) })
		streamArtifact(pl.datalatStore, app, "datalat",
			func() (string, []byte) { return trace.SecDataLat, trace.EncodeInt16s(prog.DataLat) })
	}
	return newWorkload(prof, prog, nextAt), nil
}

// streamArtifact writes one artifact container straight to a store entry
// file, materializing each section payload only while it is being written
// (the sections are closures so encodings never coexist): single-section
// containers for the array stages, the three-section program container.
// Best-effort like Store: any failure aborts the entry and the artifact is
// simply regenerated later.
func streamArtifact[K comparable, V any](c *engine.DiskCache[K, V], k K, name string, sections ...func() (string, []byte)) {
	e, ok := c.BeginStream(k)
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
