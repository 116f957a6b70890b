package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"acic/internal/cpu"
	"acic/internal/faults"
	"acic/internal/stats"
	"acic/internal/trace"
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
	assertPreparedEqual(t, w2, w1) // the load restores every array

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
// both carry no Inst records, no data-block array, no latency timeline,
// no annotations and no successor array, keep their name and length, and
// simulate exactly like Prepare's (opt included, which builds its own
// next-use oracle for the run). The warm load decodes the trace a window
// at a time, checks the ANNO, NXTA and DLAT payloads in place and builds
// no oracle, so all it allocates stays within a small multiple of the
// arrays it keeps; decoding the trace whole (32 B/inst), those three
// payloads (4.2 B/inst here), or building an oracle (2.2 B/inst here)
// would break the bound. A plain Pipeline over the same
// store still returns every array, equal to Prepare's.
func TestSuiteWorkloadsCarryOnlySimulatorState(t *testing.T) {
	const app, n = "sibench", 20_000
	prof, _ := workload.ByName(app)
	want := Prepare(prof, n)
	schemes := []string{"acic", "opt"}
	wantRes := make(map[string]cpu.Result)
	for _, scheme := range schemes {
		res, err := Run(want, scheme, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		wantRes[scheme] = res
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
		if w.Ann != nil || w.Prog.Ann != nil || w.Prog.DataLat != nil || w.NextAt != nil {
			t.Errorf("%s: suite workload keeps %d annotations (program %d), %d latencies and %d successors, want none",
				phase.name, len(w.Ann), len(w.Prog.Ann), len(w.Prog.DataLat), len(w.NextAt))
		}
		if w.Trace != w.Prog.Trace || w.Trace.Name != app || w.Prog.Len() != want.Prog.Len() {
			t.Errorf("%s: trace %q (shared %v), length %d, want %q, %d",
				phase.name, w.Trace.Name, w.Trace == w.Prog.Trace, w.Prog.Len(), app, want.Prog.Len())
		}
		assertStageCounts(t, s.pipeline, phase.computed, phase.fromStore)
		if phase.name == "warm" {
			// The load reads the entry (about 7 B/inst here) and decodes
			// the blocks: about 5.5x the descriptors and blocks it keeps
			// (2.1 B/inst). Building the oracle's compressed rows as well
			// read 6.6x, decoding the successor array, annotations and
			// latency timeline only to check them 8.6x, and the whole
			// trace's Inst records would add 32 B/inst. All break 6x.
			retained := uint64(len(w.Prog.Desc) + 8*len(w.Blocks))
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("warm PrepareAll allocated %d B for %d B of descriptors and blocks", alloc, retained)
			if alloc > 6*retained {
				t.Errorf("warm PrepareAll allocated %d B, want at most 6x the %d B of descriptors and blocks it keeps",
					alloc, retained)
			}
		}
		for _, scheme := range schemes {
			if res, err := Run(w, scheme, DefaultOptions()); err != nil || res != wantRes[scheme] {
				t.Errorf("%s: %s run %+v (%v), want %+v", phase.name, scheme, res, err, wantRes[scheme])
			}
		}
	}

	got, err := newTestPipeline(t, n, dir).Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	assertWorkloadsEqual(t, want, got)
}

// TestWorkloadArtifactGolden pins the bytes of every store entry: each
// workload.All() profile is warmed cold at n=20,000 into a fresh store,
// once at the default window and once at 4,096 instructions a window (one
// INSZ section, then five), and each entry's SHA-256 must equal the one
// recorded before the cold prepare stopped keeping the annotations, data
// blocks and latency timeline. A wrong byte in any section the cold pass
// derives (ANNO and DLAT from the descriptors, DESC, BLKS, NXTA) or in a
// window fails it.
func TestWorkloadArtifactGolden(t *testing.T) {
	const n = 20_000
	want := map[int]map[string]string{
		0: {
			"media-streaming": "5003f4b80f2cdcc6dff37cc4d3bd96b3bb587768458eab2ce5fc698d7973ec65",
			"data-caching":    "45762993ff9bf96e2b3ac67ad99340c5874ea82b15b0032aefe41cb80036aefe",
			"data-serving":    "8609a3a69f27dcf2b5d1559c4c9c864e4b21f6161b92dfbcebb281610f6676cb",
			"web-serving":     "c1d2fe7ac5aec2171b9c6ada86352a733f43fca32ed3ad1f075afc0e9ae0388e",
			"web-search":      "6e228bc0940a0db74516c705c83121904ee2ec7ea489c5764a7f4cb7ad793909",
			"tpcc":            "fe7e492a872468e7b64cf97b18dce14fdc3633d0b5e0b045ac262101a81867b9",
			"wikipedia":       "6b2e9755701ed376a2bfe650dde58efc949a3308cebdb99f86df4c8bb405e30f",
			"sibench":         "5eaecccbbe81eb33fe160919c076155efacae9aaa783d44c19126fc92720ac67",
			"finagle-http":    "bd52953df714cc5c70779a3ac2a35a17e28791be023dd4e87e7a67e096e0fe91",
			"neo4j":           "1bc8b998c8b42cccf31ca52368bc1aaadd4415a877764e0ceb25fa50e469127c",
			"perlbench":       "9156ca435e2e8e82a474ad835ba6f44fa10403a6bc5541c914b2f0e6e9119b22",
			"omnetpp":         "e1f67af4e35abfd42c4f0c5662f99fb4f8757b99d47e6283281d8d9a8f2dc534",
			"xalancbmk":       "9a0b971ffb5ff983eb23b5ff404cdc7da493a2e09668fe0f00d7ca2fda7fd77e",
			"x264":            "f286965a2913e6e52dce830a64fd0329fb06fb3e639b6d86478d211f562b1bbe",
			"gcc":             "2bebd1727acd14f75f324cbce35cb65493d056d4b8a8d1ba2f2dfb72ff96230a",
		},
		4096: {
			"media-streaming": "ae1540ad2c92b3e89957bbb9217e447670203b1cfa34e82137f3cff73496c93f",
			"data-caching":    "22c24d9e867305e3fed32dd009358b1237307374861f161e569f0af250cac595",
			"data-serving":    "c73e3839c89f618d343ea3515b6ef7a0f2daa053c21022e286727b166ed21612",
			"web-serving":     "fa0350db7c3fee297ad725f9517fce800436e132b201d159fe98e8b1f29a8eb8",
			"web-search":      "e605fbd135dace9bf26e4496165cbaf3a47c4a82cd776ef4bdd78ef6dc71c86e",
			"tpcc":            "9875f557e863a6f3537bb42991fbd7d5c6fca3afae4a8b1451d63d1b2d7abcc7",
			"wikipedia":       "de6eb196a8426915a7815bd09d7a080b4762aa2dc964aa3728f7745dc20eacc7",
			"sibench":         "e6ebc942d7d73cbff7865695ec4eda1308f754a5a761ac7fcabaa35779a09232",
			"finagle-http":    "d5d1b146d4ee15b96860f8580a5af74e73b74aa42e462b5221bd96ea1dfc2e5e",
			"neo4j":           "722ef738a6f4f1cab03c05b1adf8e2b9ff366573a039cb3973f5da7a1852eb9b",
			"perlbench":       "641eceb3a5545bdf165141371baecf70c73a8e33f70d20a61506c8a5f6f9a13d",
			"omnetpp":         "b6bc7f04214571d290df8cc52dc68bb40d987fefab4e5873da120728afe6cb55",
			"xalancbmk":       "c2c6824cbe144fd6997f7d63771ff059af78a4fb7155ef7d43f7965797bb5580",
			"x264":            "3baf484cf2383575b3481670bdffa075c81a7efb90cb7463e65fa4c1e8cc35ea",
			"gcc":             "eb46e23e32114335f65ac2b85aec97badd23fa61a47b19a9ad67ce32537db1bd",
		},
	}
	for _, window := range []int{0, 4096} {
		dir := t.TempDir()
		pl := newTestPipeline(t, n, dir)
		if window > 0 {
			pl.window = window
		}
		var apps []string
		for _, p := range workload.All() {
			apps = append(apps, p.Name)
		}
		if err := pl.Warm(apps...); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.actr"))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			name, _, err := trace.ParseContainer(data)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			got[name] = fmt.Sprintf("%x", sha256.Sum256(data))
		}
		if len(got) != len(apps) {
			t.Errorf("window=%d: store holds %d entries, want %d", window, len(got), len(apps))
		}
		for _, app := range apps {
			if got[app] != want[window][app] {
				t.Errorf("window=%d: %s entry SHA-256 %s, want %s", window, app, got[app], want[window][app])
			}
		}
	}
}

// TestPipelineWarmAllocationBound bounds what a cold Pipeline.Warm of one
// app allocates per instruction at n=400,000 into a fresh store. The
// windowed pass allocates its Inst windows, each window's encoded INSZ
// section, the descriptors, blocks and successors it keeps, the oracle,
// and the derived sections (ANNO, DESC and DLAT in one reused buffer); it
// measures about 25 B/inst. Building the annotations (1 B/inst), data
// blocks (8) and latency timeline (2) as well, and a separate payload for
// each section, as the pass once did, measures about 38 and fails.
func TestPipelineWarmAllocationBound(t *testing.T) {
	const app, n, bound = "media-streaming", 400_000, 33.0
	pl := newTestPipeline(t, n, t.TempDir())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pl.Warm(app); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perInst := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("cold Warm of %s allocated %.1f B/inst", app, perInst)
	if perInst > bound {
		t.Errorf("cold Warm of %s allocated %.1f B/inst, want at most %.0f", app, perInst, bound)
	}
}
