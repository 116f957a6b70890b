package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"acic/internal/cpu"
	"acic/internal/faults"
	"acic/internal/mem"
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

// corruptStore mangles every artifact in store root dir with the given
// transform.
func corruptStore(t *testing.T, dir string, mangle func([]byte) []byte) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, SchemaDir(), "*.actr"))
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
// at a time, copies the descriptors, decodes the blocks and builds no
// oracle, so all it allocates stays within a small multiple of the
// arrays it keeps; decoding the trace whole (32 B/inst) or building an
// oracle (2.2 B/inst here) would break the bound. The copied descriptors
// must not alias the entry buffer, which would keep every loaded entry
// alive. A plain Pipeline over the same store still returns every array,
// equal to Prepare's.
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
			// The load reads the entry (about 3.5 B/inst here), copies the
			// descriptors and decodes the blocks: about 4.0x the
			// descriptors and blocks it keeps (2.1 B/inst). An entry that
			// also carried the ANNO, NXTA and DLAT payloads read 5.5x,
			// building the oracle's compressed rows as well adds about
			// 1.1x, and the whole trace's Inst records would add
			// 32 B/inst. All break 4.5x.
			retained := uint64(len(w.Prog.Desc) + 8*len(w.Blocks))
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("warm PrepareAll allocated %d B for %d B of descriptors and blocks", alloc, retained)
			if 2*alloc > 9*retained {
				t.Errorf("warm PrepareAll allocated %d B, want at most 4.5x the %d B of descriptors and blocks it keeps",
					alloc, retained)
			}
			assertDescNotAliased(t, dir, w.Prog.Desc)
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

// assertDescNotAliased decodes the one entry in store root dir as a Suite
// does and checks the descriptors it returns (equal to desc) are a copy:
// clearing the entry buffer after the decode must leave them unchanged.
func assertDescNotAliased(t *testing.T, dir string, desc []uint8) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, SchemaDir(), "*.actr"))
	if err != nil || len(files) != 1 {
		t.Fatalf("store holds %d artifacts (%v), want 1", len(files), err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	w, err := decodeWorkload(data, mem.DefaultConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	clear(data)
	if !slices.Equal(w.Prog.Desc, desc) {
		t.Error("the simulator-only load's descriptors alias the entry buffer")
	}
}

// TestWorkloadArtifactGolden pins the bytes of every store entry: each
// workload.All() profile is warmed cold at n=20,000 into a fresh store,
// once at the default window and once at 4,096 instructions a window (one
// INSZ section, then five), and each entry's SHA-256 must equal the one
// recorded when the schema-5 entry (the windows, DESC with its data-level
// bits, and BLKS) was introduced. A wrong byte in a window, a descriptor
// or the block sequence fails it.
func TestWorkloadArtifactGolden(t *testing.T) {
	const n = 20_000
	want := map[int]map[string]string{
		0: {
			"media-streaming": "242db824272331f9acedde86e42e073799d89e522821e5a5b23c9dd56e652b82",
			"data-caching":    "75ae240268d8a07f644df393fc44d10dbdcc6018e5ce1c886641f7bcbed0e868",
			"data-serving":    "51c0ccc144c2729e04f21de44ba2b6ae274181d8fa84ca559610986578cf6230",
			"web-serving":     "9768c90e662cdd9e0d90604ba8c8a385fe7e0f7311def94906d413336c5e4d89",
			"web-search":      "1f8c1064f9ff6a8bdcec9f7b39f9bb670b7b38bee83ea0705554130fdaeb40d9",
			"tpcc":            "b4bb8a0c873a01c7c7a81ed026d02028b87c2a12472b50355fba04d227266e77",
			"wikipedia":       "4c30a35f673b553702447fe4c9c3a0c7270b82808e7017a2a3b3da79fc1dcc3e",
			"sibench":         "e1bcd77677dc4ad752775a9d7308e15b0d2a3e41ad2068402a1aeb7c9928fd4e",
			"finagle-http":    "5d053cc90f2342c70ac2f723b2895f4d7116bea796eac00dc5bad7e0967f6f35",
			"neo4j":           "f4f09793e3e51b299fa389d72535a92308dfc0fbfb6c02c92e71f51c1636c58f",
			"perlbench":       "7bedd39499b6403025026db7f88049f047051c3f116b0a4b219b2f89f2a95b07",
			"omnetpp":         "08d111edd5f3285fae67cf4276df614b147befa2babd1483c19d5a8d0e9243c5",
			"xalancbmk":       "7acf6f7efc72c09a332d2919df02ea6ba4afa0dc8a1214e6056426175d3c3554",
			"x264":            "6e82619633937895fc4dbd64d82206cfc1a6976ef65f6be12d7d0be4e2083b72",
			"gcc":             "17e3667e68e3d1bdc1beb2066cf661f75034d81e04acc5ebeebc7f9618a00dbd",
		},
		4096: {
			"media-streaming": "51856a3f1fa7f27d5b04ff78940aed63adf67c21397ca6c68e9f36972b4d9e8c",
			"data-caching":    "4708c03b142e7ab4c69cb0bfd1db11e85a893289d7cce980fa0816b00e42541c",
			"data-serving":    "d368dde65023647a2e2ed5e7e6f8b5ab0a1da922ad494a67748526d6bd5db3ed",
			"web-serving":     "52fb0d5abd580181d292bc5edce18ce32701d47b36411e7cba2188f9d24c7030",
			"web-search":      "e8ec197f836227f084e97e522c715a188f185ce3b64e47600304ec770eaf5697",
			"tpcc":            "0ffb433001593cd7c73792cf57671cb0981ce811dc0e74cfefffd3b6a909e3d3",
			"wikipedia":       "afd8461826e2b456111af71b930c7a88a6972aa270786a516eb1ba1b2265ee5f",
			"sibench":         "a1cfed3219005862d46b0414d312626836ada42d12c17dee1a35293ec2d7b970",
			"finagle-http":    "d8214d1eecdd394f1ed89c33ced95b5c2c81d8ead627cde1a548ca19d02f45ea",
			"neo4j":           "e14776f3ddaf7039faca69472bd2fbb4c4691679e2688373071acfaeb7c51207",
			"perlbench":       "4f5f88aec1b43b334925daea9134124366b3d2390301c16420aeb2b16e6f113d",
			"omnetpp":         "4a7f380cc94d549abfb0adf83f7f8fe340dfa64101dbc51676c7a9f05dcde812",
			"xalancbmk":       "b3432e927090af5a6eac459f6fd0059068661ab681e0c3a822d0868f1c6ef206",
			"x264":            "97a80be491a7cf019adda8a5362a10267e642cb9d269d4ec658fc7a491a9c7ad",
			"gcc":             "99ce1a2b194a0a6b6d6f10e907d55f8f0d8eb91c7271deb6ea3267a957045404",
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
		files, err := filepath.Glob(filepath.Join(dir, SchemaDir(), "*.actr"))
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
// section, the descriptors and blocks it keeps, and the BLKS payload; it
// measures about 18.5 B/inst. Building the successor array and the ANNO,
// NXTA and DLAT payloads as well measured about 25, and the annotations
// (1 B/inst), data blocks (8) and latency timeline (2) on top about 38:
// both fail.
func TestPipelineWarmAllocationBound(t *testing.T) {
	const app, n, bound = "media-streaming", 400_000, 22.0
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

// TestStoreRetiresFlatV4Layout: a store in the flat layout up to schema
// 4 — entries at its root, beside a stray v4/ subdirectory — is never
// read. The entries are byte copies of valid entries under the names this
// schema keys them by, so a reader that looked at the root or into v4/
// would load them; instead every app regenerates cold and every cell
// recomputes, and opening the store leaves no such entry behind. A file
// or directory the store does not name is kept.
func TestStoreRetiresFlatV4Layout(t *testing.T) {
	const n = 2000
	apps := []string{"media-streaming", "sibench"}
	newSuite := func(dir string) *Suite {
		s := NewSuite(n)
		s.Apps, s.Workers = apps, 1
		s.CacheDir, s.ArtifactDir = dir, dir
		for _, app := range apps {
			if _, err := s.Result(app, "lru", "fdp"); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	src := t.TempDir()
	newSuite(src)
	entries, err := os.ReadDir(filepath.Join(src, SchemaDir()))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copied := 0
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, SchemaDir(), ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range []string{".", "v4"} {
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, sub, ent.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		copied++
	}
	if copied != 2*len(apps) {
		t.Fatalf("source store holds %d entries, want an artifact and a result per app", copied)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "other"), 0o755); err != nil {
		t.Fatal(err)
	}

	s := newSuite(dir)
	if computed, fromCache, _ := s.Stats(); computed != int64(len(apps)) || fromCache != 0 {
		t.Errorf("cells: %d computed, %d from the old layout, want %d and 0", computed, fromCache, len(apps))
	}
	for _, st := range s.PrepareStats() {
		if st.Computed != int64(len(apps)) || st.FromStore != 0 {
			t.Errorf("stage %s: %d computed, %d from the old layout, want %d and 0", st.Stage, st.Computed, st.FromStore, len(apps))
		}
	}
	root, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range root {
		names = append(names, ent.Name())
	}
	if want := []string{"notes.json", "other", SchemaDir()}; !slices.Equal(names, want) {
		t.Errorf("store root holds %q after the open, want %q", names, want)
	}
}
