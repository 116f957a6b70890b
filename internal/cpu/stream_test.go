package cpu

import (
	"testing"

	"acic/internal/branch"
	"acic/internal/mem"
	"acic/internal/workload"
)

// TestProgramBuilderMatchesBatch pins the streaming prepare contract at
// the cpu layer: appending the trace window by window yields the
// descriptors, blocks and run-ahead bitmap of the batch NewProgram +
// EnsureDataLatencies path and keeps no annotations, data blocks or
// latency timeline, at window sizes including 1 and beyond the trace
// length. What those arrays held survives in the descriptors: a Program
// reassembled from the built descriptors and blocks and the Inst records
// (NewProgramFromParts, as a store load outside a Suite does) carries the
// batch annotations, data blocks and timeline.
func TestProgramBuilderMatchesBatch(t *testing.T) {
	prof, _ := workload.ByName("media-streaming")
	const n = 30000
	tr := workload.Generate(prof, n)
	memCfg := mem.DefaultConfig()

	want := NewProgram(tr, branch.NewFrontEnd().Annotate(tr))
	want.EnsureDataLatencies(memCfg)

	for _, window := range []int{1, 13, 4096, n, n + 999} {
		b := NewProgramBuilder(prof.Name, memCfg, n)
		for lo := 0; lo < n; lo += window {
			b.Append(tr.Insts[lo:min(lo+window, n)])
		}
		if b.Len() != n {
			t.Fatalf("window=%d: builder length %d", window, b.Len())
		}
		got := b.Finish()

		if got.Trace.Name != tr.Name || len(got.Trace.Insts) != 0 {
			t.Fatalf("window=%d: streamed Program should carry name only, got %d insts", window, len(got.Trace.Insts))
		}
		if !equal(got.Desc, want.Desc) {
			t.Fatalf("window=%d: Desc differs", window)
		}
		if !equal(got.Blocks, want.Blocks) {
			t.Fatalf("window=%d: Blocks differs", window)
		}
		if got.Ann != nil || got.MemBlk != nil || got.DataLat != nil {
			t.Fatalf("window=%d: builder kept %d annotations, %d data blocks and %d latencies, want none",
				window, len(got.Ann), len(got.MemBlk), len(got.DataLat))
		}
		if !equal(got.runEvents, want.runEvents) {
			t.Fatalf("window=%d: runEvents differs (%d vs %d words)", window, len(got.runEvents), len(want.runEvents))
		}
		full, err := NewProgramFromParts(tr, n, got.Desc, got.Blocks, memCfg)
		if err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		if !equal(full.Ann, want.Ann) || !equal(full.MemBlk, want.MemBlk) || !equal(full.DataLat, want.DataLat) {
			t.Fatalf("window=%d: the built parts do not restore the batch annotations, data blocks and timeline", window)
		}
		// Same-config Ensure must be a no-op: a replay would read the
		// missing MemBlk.
		got.EnsureDataLatencies(memCfg)
		if got.DataLat != nil || !equal(got.Desc, want.Desc) {
			t.Fatalf("window=%d: EnsureDataLatencies replayed the built timeline", window)
		}
	}
}

func TestProgramBuilderEmpty(t *testing.T) {
	b := NewProgramBuilder("empty", mem.DefaultConfig(), 0)
	p := b.Finish()
	if p.Len() != 0 || len(p.Blocks) != 0 || len(p.runEvents) != 1 {
		t.Fatalf("empty program: len %d, %d blocks, %d event words", p.Len(), len(p.Blocks), len(p.runEvents))
	}
}

// TestRunLengthsMatchTrace checks the descriptor-derived run lengths
// against the source trace's: with Blocks they are all the Fig 1a/1b
// analyses read of the per-instruction reference stream.
func TestRunLengthsMatchTrace(t *testing.T) {
	prof, _ := workload.ByName("sibench")
	tr := workload.Generate(prof, 20000)
	p := NewProgram(tr, branch.NewFrontEnd().Annotate(tr))
	if !equal(p.Blocks, tr.BlockAccesses()) {
		t.Fatalf("Blocks differ from the trace's %d block accesses", len(tr.BlockAccesses()))
	}
	if got, want := p.RunLengths(), tr.RunLengths(); !equal(got, want) {
		t.Fatalf("RunLengths: %d runs, want %d (or a length differs)", len(got), len(want))
	}
}

func equal[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestProgramBuilderBlocksCapacity bounds the block array a workload
// keeps for the whole of its run: over every workload profile, a builder
// sized by the trace length (a cold prepare) and the batch NewProgram
// (Prepare) each finish with at most 20% more capacity than blocks
// (sizing by n/4 holds about twice).
func TestProgramBuilderBlocksCapacity(t *testing.T) {
	const n = 400_000
	check := func(path, app string, p *Program) {
		t.Helper()
		if c, l := cap(p.Blocks), len(p.Blocks); c > l+l/5 {
			t.Errorf("%s %s: %d blocks in a capacity of %d, want at most %d", path, app, l, c, l+l/5)
		}
	}
	for _, prof := range workload.All() {
		b := NewProgramBuilder(prof.Name, mem.DefaultConfig(), n)
		stream := workload.GenerateStream(prof, n, 1<<16)
		for chunk := stream.Next(); chunk != nil; chunk = stream.Next() {
			b.Append(chunk)
		}
		check("builder", prof.Name, b.Finish())
		tr := workload.Generate(prof, n)
		check("batch", prof.Name, NewProgram(tr, branch.NewFrontEnd().Annotate(tr)))
	}
}
