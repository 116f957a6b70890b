package cpu

import (
	"testing"

	"acic/internal/branch"
	"acic/internal/mem"
	"acic/internal/trace"
	"acic/internal/workload"
)

// TestProgramBuilderMatchesBatch pins the streaming prepare contract at
// the cpu layer: appending the trace window by window yields the
// descriptors, blocks and run-ahead bitmap of the batch NewProgram +
// EnsureDataLatencies path, keeps no annotations, data blocks or latency
// timeline, and derives ANNO and DLAT payloads equal to the batch arrays'
// encodings, at window sizes including 1 and beyond the trace length.
func TestProgramBuilderMatchesBatch(t *testing.T) {
	prof, _ := workload.ByName("media-streaming")
	const n = 30000
	tr := workload.Generate(prof, n)
	memCfg := mem.DefaultConfig()

	want := NewProgram(tr, branch.NewFrontEnd().Annotate(tr))
	want.EnsureDataLatencies(memCfg)
	annBytes := make([]byte, n)
	for i, a := range want.Ann {
		annBytes[i] = byte(a.Redirect)
	}

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
		if got.Ann != nil || got.MemBlk != nil || got.DataLat != nil {
			t.Fatalf("window=%d: builder kept %d annotations, %d data blocks and %d latencies, want none",
				window, len(got.Ann), len(got.MemBlk), len(got.DataLat))
		}
		// What those arrays held reaches the store through the descriptors:
		// the derived ANNO and DLAT payloads encode the batch arrays.
		if !equal(got.AnnotationBytes(nil), annBytes) {
			t.Fatalf("window=%d: ANNO payload differs from the batch annotations", window)
		}
		if !equal(got.DataLatBytes(nil), trace.EncodeInt16s(want.DataLat)) {
			t.Fatalf("window=%d: DLAT payload differs from the batch timeline", window)
		}
		if !equal(got.runEvents, want.runEvents) {
			t.Fatalf("window=%d: runEvents differs (%d vs %d words)", window, len(got.runEvents), len(want.runEvents))
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

// TestProgramBuilderBlocksCapacity bounds the block array a cold prepare
// keeps for the whole of a Suite's run: over every workload profile, a
// builder sized by the trace length finishes with at most 20% more
// capacity than blocks (sizing by n/4 holds about twice).
func TestProgramBuilderBlocksCapacity(t *testing.T) {
	const n = 400_000
	for _, prof := range workload.All() {
		b := NewProgramBuilder(prof.Name, mem.DefaultConfig(), n)
		stream := workload.GenerateStream(prof, n, 1<<16)
		for chunk := stream.Next(); chunk != nil; chunk = stream.Next() {
			b.Append(chunk)
		}
		p := b.Finish()
		if c, l := cap(p.Blocks), len(p.Blocks); c > l+l/5 {
			t.Errorf("%s: %d blocks in a capacity of %d, want at most %d", prof.Name, l, c, l+l/5)
		}
	}
}
