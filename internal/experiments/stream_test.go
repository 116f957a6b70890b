package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"acic/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/exp-all.golden from the current output")

// newStreamedPipeline builds a windowed pipeline over dir.
func newStreamedPipeline(t *testing.T, n, window int, dir string) *Pipeline {
	t.Helper()
	pl, err := NewPipeline(PipelineConfig{N: n, Dir: dir, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// assertPreparedEqual is assertWorkloadsEqual minus the Trace.Insts check:
// streamed workloads deliberately carry no instruction records, so the
// comparison covers every array the simulator actually reads.
func assertPreparedEqual(t *testing.T, want, got *Workload) {
	t.Helper()
	if want.Profile != got.Profile {
		t.Fatalf("profile mismatch: %v vs %v", got.Profile.Name, want.Profile.Name)
	}
	if !equalSlices(t, "Ann", want.Ann, got.Ann) ||
		!equalSlices(t, "Desc", want.Prog.Desc, got.Prog.Desc) ||
		!equalSlices(t, "Blocks", want.Prog.Blocks, got.Prog.Blocks) ||
		!equalSlices(t, "MemBlk", want.Prog.MemBlk, got.Prog.MemBlk) ||
		!equalSlices(t, "DataLat", want.Prog.DataLat, got.Prog.DataLat) ||
		!equalSlices(t, "NextAt", want.NextAt, got.NextAt) {
		t.FailNow()
	}
}

func equalSlices[T comparable](t *testing.T, label string, a, b []T) bool {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s: length %d vs %d", label, len(a), len(b))
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: differs at %d", label, i)
			return false
		}
	}
	return true
}

// TestPipelineStreamedMatchesBatch pins the fused streamed prepare against
// the batch pipeline at window sizes including 1 and beyond the trace
// length: every prepared array equal, the streamed workload carrying no
// Inst records, and the streamed counter reporting the mode.
func TestPipelineStreamedMatchesBatch(t *testing.T) {
	const app, n = "media-streaming", 20_000
	prof, _ := workload.ByName(app)
	want := Prepare(prof, n)

	for _, window := range []int{1, 1000, n + 5000} {
		if window == 1 && testing.Short() {
			continue // window 1 re-enters the generator per instruction
		}
		pl := newStreamedPipeline(t, n, window, t.TempDir())
		got, err := pl.Workload(app)
		if err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		if len(got.Trace.Insts) != 0 {
			t.Errorf("window=%d: streamed workload retains %d insts", window, len(got.Trace.Insts))
		}
		assertPreparedEqual(t, want, got)
		if pl.Streamed() != 1 {
			t.Errorf("window=%d: Streamed() = %d, want 1", window, pl.Streamed())
		}
		for _, st := range pl.Stats() {
			switch st.Stage {
			case "streamed":
				if st.Computed != 1 {
					t.Errorf("window=%d: streamed stage computed %d, want 1", window, st.Computed)
				}
			default:
				if st.Computed != 0 || st.FromStore != 0 {
					t.Errorf("window=%d: stage %s ran (%d/%d) in streamed mode", window, st.Stage, st.Computed, st.FromStore)
				}
			}
		}
	}
}

// TestPipelineStreamedWritesWarmStore is the artifact-compatibility check:
// a streamed cold run fills the store (chunked INSZ trace container
// included), and a plain batch pipeline over the same store then loads
// every stage with zero regenerations and reconstructs the full workload —
// instruction records and all — equal to a from-scratch batch prepare.
func TestPipelineStreamedWritesWarmStore(t *testing.T) {
	const app, n = "sibench", 20_000
	prof, _ := workload.ByName(app)
	want := Prepare(prof, n)
	dir := t.TempDir()

	cold := newStreamedPipeline(t, n, 4096, dir)
	if _, err := cold.Workload(app); err != nil {
		t.Fatal(err)
	}

	warm := newTestPipeline(t, n, dir)
	got, err := warm.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	if reg := warm.Regenerated(); reg != 0 {
		t.Errorf("batch pipeline regenerated %d artifacts over the streamed store, want 0", reg)
	}
	assertWorkloadsEqual(t, want, got)

	// A second *streamed* pipeline over the now-warm store must route to
	// the batch load path: zero streamed prepares, all stages from store.
	rewarm := newStreamedPipeline(t, n, 4096, dir)
	got2, err := rewarm.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	if rewarm.Streamed() != 0 {
		t.Errorf("warm store still streamed %d prepares", rewarm.Streamed())
	}
	assertWorkloadsEqual(t, want, got2)
}

// TestPipelineStreamedNoStore covers the store-less streamed pipeline
// (ArtifactDir unset): preparation still streams and still matches batch.
func TestPipelineStreamedNoStore(t *testing.T) {
	const app, n = "tpcc", 15_000
	prof, _ := workload.ByName(app)
	want := Prepare(prof, n)

	pl, err := NewPipeline(PipelineConfig{N: n, Window: 2048})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	assertPreparedEqual(t, want, got)
	if pl.Streamed() != 1 {
		t.Errorf("Streamed() = %d, want 1", pl.Streamed())
	}
}

// TestExpAllStreamedVsBatchByteIdentical is the tentpole acceptance check:
// the full -exp all experiment output of a cold streamed-prepare suite is
// byte-identical to a cold batch-prepare suite. The batch render is also
// pinned against testdata/exp-all.golden, so a change that moves every
// lane at once cannot pass unnoticed; `go test -run
// TestExpAllStreamedVsBatchByteIdentical ./internal/experiments -update`
// rewrites the golden after an intended output change.
func TestExpAllStreamedVsBatchByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment set in -short mode")
	}
	const n = 12_000
	apps := []string{"media-streaming", "sibench"}

	batchSuite := NewSuite(n)
	batchSuite.Apps = apps
	batchSuite.ArtifactDir = t.TempDir()
	batch := renderAll(t, batchSuite)
	golden := filepath.Join("testdata", "exp-all.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(batch), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if batch != string(want) {
		t.Errorf("batch output differs from %s:\n--- got\n%s--- want\n%s", golden, batch, want)
	}

	for _, window := range []int{512, 65_536} {
		streamSuite := NewSuite(n)
		streamSuite.Apps = apps
		streamSuite.ArtifactDir = t.TempDir()
		streamSuite.PrepareWindow = window
		streamed := renderAll(t, streamSuite)
		if streamed != batch {
			t.Errorf("window=%d: streamed-prepare output diverges from batch:\n--- batch ---\n%s--- streamed ---\n%s",
				window, batch, streamed)
		}
		// Every cold prepare must have gone through the streamed path: the
		// streamed counter covers all workloads the render touched (the
		// suite's apps plus SPEC and histogram workloads) and the four
		// whole-trace stages never ran.
		for _, st := range streamSuite.PrepareStats() {
			if st.Stage == "streamed" {
				if st.Computed < int64(len(apps)) {
					t.Errorf("window=%d: streamed only %d prepares: %+v", window, st.Computed, streamSuite.PrepareStats())
				}
			} else if st.Computed != 0 {
				t.Errorf("window=%d: stage %s regenerated %d artifacts in streamed mode", window, st.Stage, st.Computed)
			}
		}
	}
}
