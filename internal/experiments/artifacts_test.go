package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"acic/internal/faults"
	"acic/internal/stats"
	"acic/internal/workload"
)

// newTestPipeline builds a pipeline over dir with a small trace.
func newTestPipeline(t *testing.T, n int, dir string) *Pipeline {
	t.Helper()
	pl, err := NewPipeline(PipelineConfig{N: n, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// assertWorkloadsEqual compares every prepared array two workloads carry.
func assertWorkloadsEqual(t *testing.T, want, got *Workload) {
	t.Helper()
	if want.Profile != got.Profile {
		t.Fatalf("profile mismatch: %v vs %v", got.Profile.Name, want.Profile.Name)
	}
	if !reflect.DeepEqual(want.Trace.Insts, got.Trace.Insts) {
		t.Fatal("trace instruction streams differ")
	}
	if !reflect.DeepEqual(want.Ann, got.Ann) {
		t.Fatal("branch annotations differ")
	}
	if !reflect.DeepEqual(want.Prog.Desc, got.Prog.Desc) {
		t.Fatal("program descriptor arrays differ")
	}
	if !reflect.DeepEqual(want.Prog.Blocks, got.Prog.Blocks) {
		t.Fatal("collapsed block sequences differ")
	}
	if !reflect.DeepEqual(want.Prog.MemBlk, got.Prog.MemBlk) {
		t.Fatal("data-block arrays differ")
	}
	if !reflect.DeepEqual(want.Prog.DataLat, got.Prog.DataLat) {
		t.Fatal("data-latency timelines differ")
	}
	if !reflect.DeepEqual(want.NextAt, got.NextAt) {
		t.Fatal("successor arrays differ")
	}
}

// assertStageCounts checks every stage's (computed, fromStore) counters.
func assertStageCounts(t *testing.T, pl *Pipeline, computed, fromStore int64) {
	t.Helper()
	for _, st := range pl.Stats() {
		if st.Computed != computed || st.FromStore != fromStore {
			t.Errorf("stage %s: computed=%d fromStore=%d, want %d/%d",
				st.Stage, st.Computed, st.FromStore, computed, fromStore)
		}
	}
}

// TestPipelineWarmStoreRoundTrip is the store's core promise: a second
// pipeline over the same store loads every stage (zero regenerations) and
// reconstructs a workload equal, array for array, to the cold one — and
// simulations over both produce bit-identical results.
func TestPipelineWarmStoreRoundTrip(t *testing.T) {
	const app, n = "media-streaming", 30_000
	dir := t.TempDir()

	cold := newTestPipeline(t, n, dir)
	w1, err := cold.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	assertStageCounts(t, cold, 1, 0)

	warm := newTestPipeline(t, n, dir)
	w2, err := warm.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	assertStageCounts(t, warm, 0, 1)
	if got := warm.Regenerated(); got != 0 {
		t.Errorf("warm store regenerated %d artifacts, want 0", got)
	}
	assertPreparedEqual(t, w1, w2)

	opts := DefaultOptions()
	for _, scheme := range []string{"lru", "acic", "opt"} {
		r1, err1 := Run(w1, scheme, opts)
		r2, err2 := Run(w2, scheme, opts)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", scheme, err1, err2)
		}
		if r1 != r2 {
			t.Errorf("%s: warm-store result diverges:\ncold %+v\nwarm %+v", scheme, r1, r2)
		}
	}
}

// TestPipelineMatchesPrepare pins the pipeline to the reference
// whole-trace path: Prepare and a store-backed pipeline must produce the
// same arrays, cold and when reloaded from the store (which also restores
// the instruction records the cold pass does not keep).
func TestPipelineMatchesPrepare(t *testing.T) {
	const app, n = "sibench", 20_000
	prof, ok := workload.ByName(app)
	if !ok {
		t.Fatal("unknown test workload")
	}
	want := Prepare(prof, n)

	dir := t.TempDir()
	pl := newTestPipeline(t, n, dir)
	got, err := pl.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	assertPreparedEqual(t, want, got)

	// And again through the store.
	warm := newTestPipeline(t, n, dir)
	got2, err := warm.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	assertWorkloadsEqual(t, want, got2)
}

// corruptStore mangles every artifact in dir with the given transform.
func corruptStore(t *testing.T, dir string, mangle func([]byte) []byte) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.actr"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, mangle(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(files)
}

// TestPipelineCorruptArtifactsRegenerate: a flipped-bit, truncated or
// garbage workload artifact must be treated as a miss — every stage
// regenerates, the workload is still correct, and the rewritten store
// serves the next run warm.
func TestPipelineCorruptArtifactsRegenerate(t *testing.T) {
	const app, n = "media-streaming", 20_000
	mangles := map[string]func([]byte) []byte{
		"bitflip":  func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"truncate": func(b []byte) []byte { return b[:len(b)/3] },
		"garbage":  func(b []byte) []byte { return []byte("not an artifact") },
	}
	prof, _ := workload.ByName(app)
	want := Prepare(prof, n)
	for name, mangle := range mangles {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := newTestPipeline(t, n, dir).Workload(app); err != nil {
				t.Fatal(err)
			}
			if files := corruptStore(t, dir, mangle); files != 1 {
				t.Fatalf("store holds %d artifacts, want 1", files)
			}

			pl := newTestPipeline(t, n, dir)
			got, err := pl.Workload(app)
			if err != nil {
				t.Fatal(err)
			}
			assertPreparedEqual(t, want, got)
			assertStageCounts(t, pl, 1, 0) // every stage regenerated

			// The regeneration rewrote the store: next run is warm again.
			rewarmed := newTestPipeline(t, n, dir)
			if _, err := rewarmed.Workload(app); err != nil {
				t.Fatal(err)
			}
			assertStageCounts(t, rewarmed, 0, 1)
		})
	}
}

// TestPipelineWarm exercises the `acic-trace warm` path: Warm writes each
// app's artifact and keeps no workload in memory, a second Warm over the
// filled store counts every app as served by the store without loading
// any, and a suite over the same store then prepares with zero
// regenerations.
func TestPipelineWarm(t *testing.T) {
	dir := t.TempDir()
	apps := []string{"media-streaming", "sibench"}
	pl := newTestPipeline(t, 20_000, dir)
	if err := pl.Warm(apps...); err != nil {
		t.Fatal(err)
	}
	assertStageCounts(t, pl, 2, 0)
	if n := pl.workloads.Size(); n != 0 {
		t.Errorf("Warm kept %d workloads in memory, want 0", n)
	}
	rewarm := newTestPipeline(t, 20_000, dir)
	if err := rewarm.Warm(apps...); err != nil {
		t.Fatal(err)
	}
	assertStageCounts(t, rewarm, 0, 2)
	if n := rewarm.WorkloadsPrepared(); n != 0 {
		t.Errorf("Warm over a filled store loaded %d workloads, want 0", n)
	}

	s := NewSuite(20_000)
	s.Apps = apps
	s.ArtifactDir = dir
	if err := s.PrepareAll(apps...); err != nil {
		t.Fatal(err)
	}
	for _, st := range s.PrepareStats() {
		if st.Computed != 0 || st.FromStore != 2 {
			t.Errorf("stage %s after warm: computed=%d fromStore=%d, want 0/2", st.Stage, st.Computed, st.FromStore)
		}
	}
}

// TestPipelineWarmReleasesPersistedApps pins Warm's persist-then-release
// contract at the default window (0) and at one that splits the trace into
// several windows: once the store holds an app, Warm drops it from memory
// and a later Workload reloads it unchanged; without a store, or when the
// store write fails, the memo is kept and Workload computes nothing new.
func TestPipelineWarmReleasesPersistedApps(t *testing.T) {
	const n = 20_000
	apps := []string{"media-streaming", "sibench"}
	want := map[string]*Workload{}
	for _, app := range apps {
		prof, _ := workload.ByName(app)
		want[app] = Prepare(prof, n)
	}
	newPipeline := func(t *testing.T, window int, dir string) *Pipeline {
		pl := newTestPipeline(t, n, dir)
		if window > 0 {
			pl.window = window
		}
		return pl
	}

	for _, window := range []int{0, 4096} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			pl := newPipeline(t, window, t.TempDir())
			// The repeated app must not be prepared twice.
			if err := pl.Warm(append(apps, apps[0])...); err != nil {
				t.Fatal(err)
			}
			if size := pl.workloads.Size(); size != 0 {
				t.Errorf("after Warm on a store, the workload group holds %d keys, want 0", size)
			}
			regenerated := pl.Regenerated()
			if regenerated != int64(4*len(apps)) {
				t.Errorf("Warm regenerated %d artifacts, want %d", regenerated, 4*len(apps))
			}
			for _, app := range apps {
				got, err := pl.Workload(app)
				if err != nil {
					t.Fatal(err)
				}
				assertWorkloadsEqual(t, want[app], got)
			}
			if got := pl.Regenerated(); got != regenerated {
				t.Errorf("Workload after Warm regenerated %d artifacts, want 0", got-regenerated)
			}
		})

		kept := []struct {
			name, dir, spec string
		}{
			{"no-store", "", ""},
			{"io-err", t.TempDir(), "io-err:p=1;seed=1"},
		}
		for _, k := range kept {
			t.Run(fmt.Sprintf("window=%d/%s", window, k.name), func(t *testing.T) {
				if err := faults.Install(k.spec); err != nil {
					t.Fatal(err)
				}
				defer faults.Install("")
				pl := newPipeline(t, window, k.dir)
				if err := pl.Warm(apps...); err != nil {
					t.Fatal(err)
				}
				if memo := pl.workloads.Size(); memo != len(apps) {
					t.Errorf("Warm without a persisted store kept %d apps in memory, want %d", memo, len(apps))
				}
				regenerated := pl.Regenerated()
				for _, app := range apps {
					got, err := pl.Workload(app)
					if err != nil {
						t.Fatal(err)
					}
					assertPreparedEqual(t, want[app], got)
				}
				if pl.Regenerated() != regenerated {
					t.Errorf("Workload after an in-memory Warm recomputed: regenerated %d -> %d",
						regenerated, pl.Regenerated())
				}
			})
		}
	}
}

// renderAll renders the full acic-bench experiment set (every renderer the
// -exp all path drives) against one suite and returns the concatenated
// output bytes.
func renderAll(t *testing.T, s *Suite) string {
	t.Helper()
	var out strings.Builder
	renderers := []struct {
		name string
		run  func() (*stats.Table, error)
	}{
		{"table3", s.Table3},
		{"fig1a", s.Fig1a},
		{"fig1b", func() (*stats.Table, error) { return s.Fig1b("media-streaming") }},
		{"fig3a", s.Fig3a},
		{"fig10", s.Fig10},
		{"fig11", s.Fig11},
		{"fig12a", s.Fig12a},
		{"fig12b", s.Fig12b},
		{"fig13", s.Fig13},
		{"fig14", s.Fig14},
		{"fig15", s.Fig15},
		{"fig16", s.Fig16},
		{"fig17", s.Fig17},
		{"fig18", s.Fig18},
		{"fig19", s.Fig19},
		{"fig20", s.Fig20},
		{"fig21", s.Fig21},
		{"energy", s.Energy},
		{"ext-schemes", s.ExtendedComparison},
		{"ext-pfaware", s.PrefetchAware},
		{"ext-headroom", s.Headroom},
		{"ext-prefetchers", s.PrefetcherBaselines},
		{"ext-evict-train", func() (*stats.Table, error) { return AblationCSHRDefault(s) }},
	}
	for _, r := range renderers {
		tbl, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		out.WriteString("=== " + r.name + "\n" + tbl.String())
	}
	// The two histogram experiments of the -exp all set.
	h3b, wrong, err := s.Fig3b("media-streaming")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range h3b.Fractions() {
		out.WriteString(stats.Percent(f) + " ")
	}
	out.WriteString(stats.Percent(wrong) + "\n")
	h6, err := s.Fig6("data-caching")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range h6.Fractions() {
		out.WriteString(stats.Percent(f) + " ")
	}
	out.WriteString("\n")
	return out.String()
}

// TestExpAllColdVsWarmStoreByteIdentical is the acceptance check: a warm
// artifact store must leave the full experiment output byte-identical to a
// cold run, and to testdata/exp-all.golden, while every prepare stage loads
// from the store what the cold run computed and regenerates nothing.
func TestExpAllColdVsWarmStoreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment set in -short mode")
	}
	const n = 12_000
	apps := []string{"media-streaming", "sibench"}
	golden := filepath.Join("testdata", "exp-all.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	coldSuite := NewSuite(n)
	coldSuite.Apps = apps
	coldSuite.ArtifactDir = dir
	cold := renderAll(t, coldSuite)
	if cold != string(want) {
		t.Errorf("cold store: output differs from %s:\n--- got\n%s--- want\n%s", golden, cold, want)
	}
	prepared := coldSuite.PrepareStats()[0].Computed
	for _, st := range coldSuite.PrepareStats() {
		if st.FromStore != 0 || st.Computed < int64(len(apps)) {
			t.Errorf("cold store: stage %s computed %d, from store %d", st.Stage, st.Computed, st.FromStore)
		}
	}

	warmSuite := NewSuite(n)
	warmSuite.Apps = apps
	warmSuite.ArtifactDir = dir
	warm := renderAll(t, warmSuite)
	if warm != cold {
		t.Errorf("warm-store output diverges from cold run:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	for _, st := range warmSuite.PrepareStats() {
		if st.Computed != 0 || st.FromStore != prepared {
			t.Errorf("warm store: stage %s computed %d, from store %d, want 0, %d", st.Stage, st.Computed, st.FromStore, prepared)
		}
	}
}

// TestSuiteWorkloadsCarryOnlySimulatorState pins what a Suite keeps
// resident: a workload it prepares cold and one it loads from the store
// both carry no Inst records, no data-block array, no latency timeline
// and no annotations, keep their name and length, and simulate exactly
// like Prepare's. The warm load decodes the trace a window at a time, so
// all it allocates stays within a small multiple of the arrays it keeps;
// decoding the trace whole (32 B/inst) would break the bound. A plain
// Pipeline over the same store still returns every array, equal to
// Prepare's.
func TestSuiteWorkloadsCarryOnlySimulatorState(t *testing.T) {
	const app, n = "sibench", 20_000
	prof, _ := workload.ByName(app)
	want := Prepare(prof, n)
	wantRes, err := Run(want, "acic", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	for _, phase := range []struct {
		name                string
		computed, fromStore int64
	}{{"cold", 1, 0}, {"warm", 0, 1}} {
		s := NewSuite(n)
		s.ArtifactDir = dir
		s.init()
		// Twenty windows, so the whole trace is many times one window.
		s.pipeline.window = n / 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.PrepareAll(app); err != nil {
			t.Fatalf("%s: %v", phase.name, err)
		}
		runtime.ReadMemStats(&after)
		w, err := s.Workload(app)
		if err != nil {
			t.Fatalf("%s: %v", phase.name, err)
		}
		if w.Trace.Insts != nil || w.Prog.Trace.Insts != nil || w.Prog.MemBlk != nil {
			t.Errorf("%s: suite workload keeps %d insts (program %d) and %d data blocks, want none",
				phase.name, len(w.Trace.Insts), len(w.Prog.Trace.Insts), len(w.Prog.MemBlk))
		}
		if w.Ann != nil || w.Prog.Ann != nil || w.Prog.DataLat != nil {
			t.Errorf("%s: suite workload keeps %d annotations (program %d) and %d latencies, want none",
				phase.name, len(w.Ann), len(w.Prog.Ann), len(w.Prog.DataLat))
		}
		if w.Trace != w.Prog.Trace || w.Trace.Name != app || w.Prog.Len() != want.Prog.Len() {
			t.Errorf("%s: trace %q (shared %v), length %d, want %q, %d",
				phase.name, w.Trace.Name, w.Trace == w.Prog.Trace, w.Prog.Len(), app, want.Prog.Len())
		}
		assertStageCounts(t, s.pipeline, phase.computed, phase.fromStore)
		if phase.name == "warm" {
			// The load reads the entry (about 7 B/inst here), decodes the
			// arrays and builds the oracle's compressed rows: about 5.7x
			// the descriptors, blocks and successors it keeps (3.1
			// B/inst). The oracle's old per-block position lists, grown
			// by append, read 6.7x; the whole trace's Inst records would
			// add 32 B/inst, and MemBlk alone 8 B/inst. All break 6x.
			retained := uint64(len(w.Prog.Desc) + 8*len(w.Blocks) + 8*len(w.NextAt))
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("warm PrepareAll allocated %d B for %d B of descriptors, blocks and successors", alloc, retained)
			if alloc > 6*retained {
				t.Errorf("warm PrepareAll allocated %d B, want at most 6x the %d B of descriptors, blocks and successors it keeps",
					alloc, retained)
			}
		}
		if res, err := Run(w, "acic", DefaultOptions()); err != nil || res != wantRes {
			t.Errorf("%s: acic run %+v (%v), want %+v", phase.name, res, err, wantRes)
		}
	}

	got, err := newTestPipeline(t, n, dir).Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	assertWorkloadsEqual(t, want, got)
}
