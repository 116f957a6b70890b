package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"acic/internal/trace"
	"acic/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/exp-all.golden from the current output")

// newStreamedPipeline builds a pipeline over dir whose cold prepare
// advances window instructions at a time.
func newStreamedPipeline(t *testing.T, n, window int, dir string) *Pipeline {
	t.Helper()
	pl := newTestPipeline(t, n, dir)
	pl.window = window
	return pl
}

// assertPreparedEqual checks a cold-prepared workload (got) against one
// that carries every array (want: Prepare's or a store load's). A cold
// workload deliberately keeps no Inst records, annotations, data blocks or
// latency timeline, so the descriptors, blocks and successors are compared
// directly, and want's annotations and timeline against the ANNO and DLAT
// payloads got derives from its descriptors. The data blocks are compared
// through a store reload (assertWorkloadsEqual).
func assertPreparedEqual(t *testing.T, want, got *Workload) {
	t.Helper()
	if want.Profile != got.Profile {
		t.Fatalf("profile mismatch: %v vs %v", got.Profile.Name, want.Profile.Name)
	}
	wantAnn := make([]byte, len(want.Ann))
	for i, a := range want.Ann {
		wantAnn[i] = byte(a.Redirect)
	}
	if !equalSlices(t, "Desc", want.Prog.Desc, got.Prog.Desc) ||
		!equalSlices(t, "Blocks", want.Prog.Blocks, got.Prog.Blocks) ||
		!equalSlices(t, "NextAt", want.NextAt, got.NextAt) ||
		!equalSlices(t, "ANNO payload", wantAnn, got.Prog.AnnotationBytes(nil)) ||
		!equalSlices(t, "DLAT payload", trace.EncodeInt16s(want.Prog.DataLat), got.Prog.DataLatBytes(nil)) {
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

// TestPipelineStreamedMatchesBatch pins the windowed cold prepare against
// the whole-trace reference (Prepare) at window sizes including 1 and
// beyond the trace length: every prepared array equal, the cold workload
// carrying no Inst records, each stage counted once, and the warm reload
// regenerating nothing and restoring Inst records equal to the
// reference's. Window 1 asks for more windows than the artifact holds
// sections, and n = 20,480 = 1,024 × 20 is where a window grown to fill
// all trace.MaxSections sections would leave no room for the derived
// ones, so its warm reload pins the window's growth to n/(MaxSections-5).
func TestPipelineStreamedMatchesBatch(t *testing.T) {
	const app, n = "media-streaming", 20_480
	prof, _ := workload.ByName(app)
	want := Prepare(prof, n)

	for _, window := range []int{1, 1000, n + 5000} {
		if window == 1 && testing.Short() {
			continue // window 1 re-enters the generator every 20 instructions
		}
		dir := t.TempDir()
		pl := newStreamedPipeline(t, n, window, dir)
		got, err := pl.Workload(app)
		if err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		if len(got.Trace.Insts) != 0 {
			t.Errorf("window=%d: cold workload retains %d insts", window, len(got.Trace.Insts))
		}
		assertPreparedEqual(t, want, got)
		assertStageCounts(t, pl, 1, 0)

		warmPl := newTestPipeline(t, n, dir)
		warm, err := warmPl.Workload(app)
		if err != nil {
			t.Fatalf("window=%d: warm reload: %v", window, err)
		}
		if reg := warmPl.Regenerated(); reg != 0 {
			t.Fatalf("window=%d: warm reload regenerated %d stages, want 0", window, reg)
		}
		assertWorkloadsEqual(t, want, warm)
	}
}

// TestPipelineStreamedWritesWarmStore is the artifact-compatibility check:
// a multi-window cold run fills the store (one INSZ section per window in
// the workload artifact), and a pipeline at the default window over the
// same store then loads every stage with zero regenerations and
// reconstructs the full workload — instruction records and all — equal to
// Prepare's.
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
		t.Errorf("pipeline regenerated %d artifacts over the multi-window store, want 0", reg)
	}
	assertWorkloadsEqual(t, want, got)
}

// TestPipelineStreamedNoStore covers the store-less pipeline (ArtifactDir
// unset): preparation still streams and still matches Prepare.
func TestPipelineStreamedNoStore(t *testing.T) {
	const app, n = "tpcc", 15_000
	prof, _ := workload.ByName(app)
	want := Prepare(prof, n)

	pl := newStreamedPipeline(t, n, 2048, "")
	got, err := pl.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	assertPreparedEqual(t, want, got)
	assertStageCounts(t, pl, 1, 0)
}

// TestExpAllStreamedVsBatchByteIdentical is the end-to-end acceptance
// check: the full -exp all experiment output of a cold suite, at the
// default window and at 512 and 65,536 instructions, is byte-identical to
// testdata/exp-all.golden, which was rendered by the whole-trace prepare
// the windowed pass replaced. `go test -run
// TestExpAllStreamedVsBatchByteIdentical ./internal/experiments -update`
// rewrites the golden from the default-window render after an intended
// output change.
func TestExpAllStreamedVsBatchByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment set in -short mode")
	}
	const n = 12_000
	apps := []string{"media-streaming", "sibench"}
	golden := filepath.Join("testdata", "exp-all.golden")

	for _, window := range []int{0, 512, 65_536} {
		s := NewSuite(n)
		s.Apps = apps
		s.ArtifactDir = t.TempDir()
		s.init()
		if window > 0 {
			s.pipeline.window = window
		}
		got := renderAll(t, s)
		if *update && window == 0 {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("window=%d: output differs from %s:\n--- got\n%s--- want\n%s", window, golden, got, want)
		}
		// Every prepare was cold: the render touched at least the suite's
		// apps (plus SPEC and histogram workloads), and none came from the
		// fresh store.
		for _, st := range s.PrepareStats() {
			if st.Computed < int64(len(apps)) || st.FromStore != 0 {
				t.Errorf("window=%d: stage %s computed %d, from store %d", window, st.Stage, st.Computed, st.FromStore)
			}
		}
	}
}
