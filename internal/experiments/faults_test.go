package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"acic/internal/experiments/engine"
	"acic/internal/faults"
	"acic/internal/trace"
	"acic/internal/workload"
)

// findArtifactWithSection returns the path of the store artifact carrying
// a section with the given tag, plus that section's spans within it.
func findArtifactWithSection(t *testing.T, dir, tag string) (string, []trace.SectionSpan) {
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
		spans, err := trace.SectionSpans(data)
		if err != nil {
			t.Fatal(err)
		}
		var hits []trace.SectionSpan
		for _, sp := range spans {
			if sp.Tag == tag {
				hits = append(hits, sp)
			}
		}
		if len(hits) > 0 {
			return f, hits
		}
	}
	t.Fatalf("no store artifact carries a %s section", tag)
	return "", nil
}

// flipPayloadBit flips one bit in the middle of a section payload on
// disk. Working at the raw-byte level (rather than re-encoding) is the
// point: the container CRC still covers the payload, so the flip must
// surface as ErrBadFormat on the next read.
func flipPayloadBit(t *testing.T, path string, sp trace.SectionSpan) {
	t.Helper()
	if sp.Len == 0 {
		t.Fatalf("section %s payload is empty; cannot flip", sp.Tag)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[sp.Off+sp.Len/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// assertQuarantined checks the store's quarantine/ holds exactly want
// entries, each with a reason file, and that no reason or temp file leaks
// into the store root.
func assertQuarantined(t *testing.T, dir string, want int) {
	t.Helper()
	qdir := filepath.Join(dir, engine.QuarantineDirName)
	entries, err := os.ReadDir(qdir)
	if err != nil {
		if want == 0 && os.IsNotExist(err) {
			return
		}
		t.Fatal(err)
	}
	var quarantined, reasons int
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".reason") {
			reasons++
		} else {
			quarantined++
		}
	}
	if quarantined != want || reasons != want {
		t.Fatalf("quarantine holds %d entries / %d reasons, want %d each", quarantined, reasons, want)
	}
	root, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range root {
		if ent.IsDir() {
			continue
		}
		if strings.HasSuffix(ent.Name(), ".reason") || strings.HasPrefix(ent.Name(), "tmp-") {
			t.Fatalf("store root leaked %s", ent.Name())
		}
	}
}

// TestSectionBitFlipQuarantineAndRegenerate is the satellite coverage
// matrix: one flipped bit inside each v2 section type's CRC-covered
// payload must quarantine the artifact (reason file and all), regenerate
// a workload equal to the reference, and leave the store warm again.
func TestSectionBitFlipQuarantineAndRegenerate(t *testing.T) {
	const app, n = "media-streaming", 20_000
	prof, _ := workload.ByName(app)
	want := Prepare(prof, n)

	for _, tag := range []string{
		trace.SecInstsZ, trace.SecAnnot, trace.SecDesc,
		trace.SecBlocks, trace.SecNextAt, trace.SecDataLat,
	} {
		t.Run(tag, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := newTestPipeline(t, n, dir).Workload(app); err != nil {
				t.Fatal(err)
			}
			path, spans := findArtifactWithSection(t, dir, tag)
			flipPayloadBit(t, path, spans[0])

			pl := newTestPipeline(t, n, dir)
			got, err := pl.Workload(app)
			if err != nil {
				t.Fatal(err)
			}
			assertWorkloadsEqual(t, want, got)
			if q := pl.Quarantined(); q != 1 {
				t.Fatalf("Quarantined = %d, want 1", q)
			}
			assertQuarantined(t, dir, 1)

			// The regenerated artifact went back to the store: next run
			// is fully warm again.
			rewarmed := newTestPipeline(t, n, dir)
			if _, err := rewarmed.Workload(app); err != nil {
				t.Fatal(err)
			}
			assertStageCounts(t, rewarmed, 0, 1)
		})
	}

	// The legacy SecInsts layout: rewrite the trace artifact as an
	// old-generation INST container, confirm it still loads (compat),
	// then flip a payload bit and confirm quarantine + regeneration.
	t.Run(trace.SecInsts, func(t *testing.T) {
		dir := t.TempDir()
		if _, err := newTestPipeline(t, n, dir).Workload(app); err != nil {
			t.Fatal(err)
		}
		path, _ := findArtifactWithSection(t, dir, trace.SecInstsZ)
		var b bytes.Buffer
		if err := trace.WriteContainer(&b, want.Trace.Name, []trace.Section{
			{Tag: trace.SecInsts, Data: trace.EncodeInsts(want.Trace.Insts)},
		}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		compat := newTestPipeline(t, n, dir)
		got, err := compat.Workload(app)
		if err != nil {
			t.Fatal(err)
		}
		assertWorkloadsEqual(t, want, got)
		if q := compat.Quarantined(); q != 0 {
			t.Fatalf("compat INST artifact quarantined (%d), want readable", q)
		}

		_, spans := findArtifactWithSection(t, dir, trace.SecInsts)
		flipPayloadBit(t, path, spans[0])
		pl := newTestPipeline(t, n, dir)
		got, err = pl.Workload(app)
		if err != nil {
			t.Fatal(err)
		}
		assertWorkloadsEqual(t, want, got)
		if q := pl.Quarantined(); q != 1 {
			t.Fatalf("Quarantined = %d, want 1", q)
		}
		assertQuarantined(t, dir, 1)
	})
}

// TestStreamedStoreBitFlipWarmLoad covers the streamed-store warm-load
// path: artifacts written by the windowed cold prepare (multiple INSZ
// sections in one container) are corrupted and must quarantine and
// regenerate exactly like batch-written ones.
func TestStreamedStoreBitFlipWarmLoad(t *testing.T) {
	const app, n = "media-streaming", 20_000
	prof, _ := workload.ByName(app)
	want := Prepare(prof, n)

	dir := t.TempDir()
	cold, err := NewPipeline(PipelineConfig{N: n, Dir: dir, Window: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Workload(app); err != nil {
		t.Fatal(err)
	}
	if cold.Streamed() != 1 {
		t.Fatalf("cold prepare did not stream (%d)", cold.Streamed())
	}
	path, spans := findArtifactWithSection(t, dir, trace.SecInstsZ)
	if len(spans) < 2 {
		t.Fatalf("streamed trace artifact has %d INSZ sections, want one per window", len(spans))
	}
	flipPayloadBit(t, path, spans[len(spans)-1])

	// A warm store routes the windowed pipeline through the batch load
	// path (storeWarm); the corrupt trace must quarantine there and the
	// workload still come out equal.
	warm, err := NewPipeline(PipelineConfig{N: n, Dir: dir, Window: 4096})
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	assertWorkloadsEqual(t, want, got)
	if q := warm.Quarantined(); q != 1 {
		t.Fatalf("Quarantined = %d, want 1", q)
	}
	assertQuarantined(t, dir, 1)
}

// TestStreamFallbackToBatch: an injected panic mid-window must degrade
// the streamed prepare to the batch path — same workload, counted as a
// fallback, no error surfaced.
func TestStreamFallbackToBatch(t *testing.T) {
	const app, n = "sibench", 20_000
	prof, _ := workload.ByName(app)
	want := Prepare(prof, n)

	// Each stream window is its own fault key (sibench/0 .. sibench/4 at
	// this N and window), and every=3 fires one attempt in three per key
	// at a key-derived phase. Under the default seed a window fires on its
	// first attempt, so the stream dies mid-flight and the batch stages
	// (whose compute boundaries also draw) recover via their
	// transient-retry policy.
	if err := faults.Install("panic-cell:every=3"); err != nil {
		t.Fatal(err)
	}
	defer faults.Install("")
	pl, err := NewPipeline(PipelineConfig{N: n, Dir: t.TempDir(), Window: 4096})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	faults.Install("")
	assertWorkloadsEqual(t, want, got)
	if f := pl.StreamFallbacks(); f != 1 {
		t.Fatalf("StreamFallbacks = %d, want 1", f)
	}
	if pl.Streamed() != 0 {
		t.Fatalf("Streamed = %d after fallback, want 0", pl.Streamed())
	}
}

// TestGangDegradeLadder: injected gang panics must degrade to serial
// reruns with results identical to a fault-free serial suite, and a cell
// whose failure is deterministic (unknown scheme) must fail only itself.
func TestGangDegradeLadder(t *testing.T) {
	const n = 20_000
	apps := []string{"media-streaming", "sibench"}
	cells := CrossCells(apps, []string{"lru", "acic", "opt"}, "none")

	clean := NewSuite(n)
	clean.Apps = apps
	if err := clean.Require(cells...); err != nil {
		t.Fatal(err)
	}

	// every=1 fires on every panic-cell draw: each gang attempt panics at
	// its boundary and every member walks the serial-rerun ladder. The
	// serial reruns run through the results group's retry path whose
	// compute boundary also draws — so give it enough attempts.
	t.Setenv("ACIC_RETRY_ATTEMPTS", "4")
	if err := faults.Install("panic-cell:every=2"); err != nil {
		t.Fatal(err)
	}
	defer faults.Install("")
	gang := NewSuite(n)
	gang.Apps = apps
	gang.GangSize = 3
	if err := gang.Require(cells...); err != nil {
		t.Fatal(err)
	}
	faults.Install("")

	fs := gang.FaultStats()
	if fs.GangDegraded == 0 && fs.Retries == 0 {
		t.Fatalf("fault run absorbed nothing: %+v", fs)
	}
	for _, c := range cells {
		want, err := clean.Result(c.App, c.Scheme, c.Prefetcher)
		if err != nil {
			t.Fatal(err)
		}
		got, err := gang.Result(c.App, c.Scheme, c.Prefetcher)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if want != got {
			t.Fatalf("%v diverged under injected gang faults", c)
		}
	}
}

// TestGangBadMemberFailsOnlyItself: a deterministic per-member failure
// re-runs serially, fails again, and is fulfilled with its own error —
// the healthy members of the same gang still produce results.
func TestGangBadMemberFailsOnlyItself(t *testing.T) {
	const n = 20_000
	s := NewSuite(n)
	s.Apps = []string{"media-streaming"}
	s.GangSize = 3
	cells := []Cell{
		{"media-streaming", "lru", "none"},
		{"media-streaming", "no-such-scheme", "none"},
		{"media-streaming", "acic", "none"},
	}
	err := s.Require(cells...)
	if err == nil || !strings.Contains(err.Error(), "no-such-scheme") {
		t.Fatalf("Require = %v, want the bad member's error", err)
	}
	for _, c := range []Cell{cells[0], cells[2]} {
		if _, err := s.Result(c.App, c.Scheme, c.Prefetcher); err != nil {
			t.Fatalf("healthy gang member %v poisoned: %v", c, err)
		}
	}
	if fs := s.FaultStats(); fs.SerialReruns == 0 {
		t.Fatalf("bad member never walked the ladder: %+v", fs)
	}
}

// TestSuiteContextCancel: a cancelled suite context fails not-yet-started
// cells with the context error, on both the per-cell and gang paths.
func TestSuiteContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, gangSize := range []int{0, 2} {
		s := NewSuite(20_000)
		s.Apps = []string{"media-streaming"}
		s.GangSize = gangSize
		s.Context = ctx
		err := s.Require(CrossCells(s.Apps, []string{"lru", "acic"}, "none")...)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("GangSize=%d: Require = %v, want context.Canceled", gangSize, err)
		}
	}
}

// TestFaultInjectedExpAllByteIdentical is the acceptance criterion: with
// a pinned fault spec injecting IO errors, artifact corruption, and
// periodic worker panics, the full experiment set completes with bounded
// retries and its output is byte-identical to a fault-free run — cold
// (faults corrupt some stored artifacts) and warm (the corrupt entries
// quarantine and regenerate).
func TestFaultInjectedExpAllByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment set in -short mode")
	}
	const n = 12_000
	apps := []string{"media-streaming", "sibench"}

	cleanSuite := NewSuite(n)
	cleanSuite.Apps = apps
	clean := renderAll(t, cleanSuite)

	const spec = "io-err:p=0.05;corrupt-artifact:p=0.5;panic-cell:every=23;seed=7"
	t.Setenv("ACIC_RETRY_ATTEMPTS", "4")
	if err := faults.Install(spec); err != nil {
		t.Fatal(err)
	}
	defer faults.Install("")

	dir := t.TempDir()
	coldSuite := NewSuite(n)
	coldSuite.Apps = apps
	coldSuite.ArtifactDir = dir
	coldSuite.GangSize = 3
	cold := renderAll(t, coldSuite)
	if cold != clean {
		t.Fatalf("fault-injected cold output diverges from fault-free run")
	}
	coldStats := coldSuite.FaultStats()
	if !coldStats.Any() || coldStats.Spec != spec {
		t.Fatalf("cold fault run recorded no activity: %+v", coldStats)
	}

	// Warm rerun over the (partially corrupted) store: quarantines must
	// absorb the damage and output stay identical again.
	warmSuite := NewSuite(n)
	warmSuite.Apps = apps
	warmSuite.ArtifactDir = dir
	warm := renderAll(t, warmSuite)
	faults.Install("")
	if warm != clean {
		t.Fatalf("fault-injected warm output diverges from fault-free run")
	}
	assertNoStrayStoreFiles(t, dir)
}

// assertNoStrayStoreFiles checks the store root holds only artifact and
// result entries — no temps, no reason files (quarantine/ and tmp/ are
// where those belong).
func assertNoStrayStoreFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.IsDir() {
			if ent.Name() != engine.QuarantineDirName && ent.Name() != "tmp" {
				t.Fatalf("unexpected store subdirectory %s", ent.Name())
			}
			continue
		}
		if !strings.HasSuffix(ent.Name(), ".actr") && !strings.HasSuffix(ent.Name(), ".json") {
			t.Fatalf("stray file %s in store root", ent.Name())
		}
	}
}
