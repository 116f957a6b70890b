package cpu

import (
	"testing"

	"acic/internal/branch"
	"acic/internal/mem"
	"acic/internal/workload"
)

// TestProgramBuilderMatchesBatch pins the streaming prepare contract at
// the cpu layer: appending the trace window by window yields a Program
// field-identical to the batch NewProgram + EnsureDataLatencies path, at
// window sizes including 1 and beyond the trace length.
func TestProgramBuilderMatchesBatch(t *testing.T) {
	prof, _ := workload.ByName("media-streaming")
	const n = 30000
	tr := workload.Generate(prof, n)
	memCfg := mem.DefaultConfig()

	want := NewProgram(tr, branch.NewFrontEnd().Annotate(tr))
	want.EnsureDataLatencies(memCfg)

	for _, window := range []int{1, 13, 4096, n, n + 999} {
		b := NewProgramBuilder(prof.Name, memCfg, n)
		var blocksSeen int
		for lo := 0; lo < n; lo += window {
			added := b.Append(tr.Insts[lo:min(lo+window, n)])
			blocksSeen += len(added)
		}
		if b.Len() != n {
			t.Fatalf("window=%d: builder length %d", window, b.Len())
		}
		got := b.Finish()

		if got.Trace.Name != tr.Name || len(got.Trace.Insts) != 0 {
			t.Fatalf("window=%d: streamed Program should carry name only, got %d insts", window, len(got.Trace.Insts))
		}
		if blocksSeen != len(want.Blocks) {
			t.Fatalf("window=%d: Append yielded %d blocks, want %d", window, blocksSeen, len(want.Blocks))
		}
		if !equal(got.Desc, want.Desc) {
			t.Fatalf("window=%d: Desc differs", window)
		}
		if !equal(got.Blocks, want.Blocks) {
			t.Fatalf("window=%d: Blocks differs", window)
		}
		if !equal(got.MemBlk, want.MemBlk) {
			t.Fatalf("window=%d: MemBlk differs", window)
		}
		if !equal(got.DataLat, want.DataLat) {
			t.Fatalf("window=%d: DataLat differs", window)
		}
		if !equal(got.Ann, want.Ann) {
			t.Fatalf("window=%d: Ann differs", window)
		}
		if !equal(got.runEvents, want.runEvents) {
			t.Fatalf("window=%d: runEvents differs (%d vs %d words)", window, len(got.runEvents), len(want.runEvents))
		}
		// Same-config Ensure must be a no-op, not a recompute or panic.
		got.EnsureDataLatencies(memCfg)
		if !equal(got.DataLat, want.DataLat) {
			t.Fatalf("window=%d: EnsureDataLatencies disturbed the adopted timeline", window)
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
