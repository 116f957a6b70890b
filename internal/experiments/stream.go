package experiments

import (
	"acic/internal/cpu"
	"acic/internal/experiments/engine"
	"acic/internal/trace"
	"acic/internal/workload"
)

// stream is the cold prepare: one windowed walk drives generation
// (workload.GenerateStream), branch annotation and descriptor/latency
// derivation (cpu.ProgramBuilder), and — when a store is configured — the
// workload artifact, written one INSZ section per window through a
// ContainerWriter so the full instruction image never exists in memory.
// Peak residency is O(window) Inst records plus what the simulator keeps
// anyway: per instruction, the descriptor byte (which carries its branch
// redirect and data level) and a run-ahead bit, and per block access its
// block. The returned workload has no Inst records, annotations, data
// blocks, latency timeline or successor array whatever the pipeline (a
// later load from the store derives all five outside a Suite). The DESC
// and BLKS sections are the descriptors and blocks as they are held.
//
// The generator, the front end, and the data hierarchy are all sequential
// state machines, so per-window feeding equals the whole-trace pass of
// Prepare (pinned by the per-layer differential tests and
// TestPipelineStreamedMatchesBatch).
func (pl *Pipeline) stream(app string, prof workload.Profile) *Workload {
	builder := cpu.NewProgramBuilder(prof.Name, pl.memCfg, pl.n)
	// The artifact takes one section per window plus the derived sections,
	// so the window grows with n past that many windows to keep the
	// artifact within the reader's section limit.
	maxWindows := trace.MaxSections - len(workloadSections)
	window := max(pl.window, (pl.n+maxWindows-1)/maxWindows)
	stream := workload.GenerateStream(prof, pl.n, window)

	// Best-effort streaming write of the artifact: a failure at any point
	// drops persistence (a later run regenerates it) but never the
	// preparation itself. The deferred Abort discards the entry unless it
	// was committed, including when this pass dies mid-window (one failed
	// attempt of the workload group); Abort is a no-op on nil and after
	// Commit.
	var entry *engine.StreamEntry
	var cw *trace.ContainerWriter
	defer func() { entry.Abort() }()
	if pl.store != nil {
		if e, ok := pl.store.BeginStream(app); ok {
			entry = e
			// On error cw stays nil and the deferred Abort discards the entry.
			cw, _ = trace.NewContainerWriter(e.F, prof.Name)
		}
	}
	// persist writes one section, materializing its payload only while it
	// is written: assembling the container whole would sit on top of the
	// finished Program and dominate the peak the windowed walk avoids.
	persist := func(tag string, payload func() []byte) {
		if cw != nil && cw.WriteSection(tag, payload()) != nil {
			cw = nil
		}
	}

	for chunk := stream.Next(); chunk != nil; chunk = stream.Next() {
		persist(trace.SecInstsZ, func() []byte { return trace.EncodeInstsPacked(chunk) })
		builder.Append(chunk)
	}

	prog := builder.Finish()
	// The derived sections follow the last window, in workloadSections
	// order, so later runs load instead of regenerating.
	persist(trace.SecDesc, func() []byte { return prog.Desc })
	persist(trace.SecBlocks, func() []byte { return trace.EncodeUint64sDelta(prog.Blocks) })
	if cw != nil && cw.Close() == nil {
		entry.Commit()
	}
	return newWorkload(prof, prog, nil)
}
