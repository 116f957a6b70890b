package experiments

import (
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

// findArtifactWithSection returns the path of the artifact in store root
// dir carrying a section with the given tag, plus that section's spans
// within it.
func findArtifactWithSection(t *testing.T, dir, tag string) (string, []trace.SectionSpan) {
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

// assertQuarantined checks the quarantine/ of store root dir holds
// exactly want entries, each with a reason file, and that no reason or
// temp file leaks into the store.
func assertQuarantined(t *testing.T, dir string, want int) {
	t.Helper()
	dir = filepath.Join(dir, SchemaDir())
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

// TestSectionBitFlipQuarantineAndRegenerate is the coverage matrix: one
// flipped bit inside each section type's CRC-covered payload must
// quarantine the workload artifact (reason file and all), regenerate a
// workload equal to the reference, and leave the store warm again.
func TestSectionBitFlipQuarantineAndRegenerate(t *testing.T) {
	const app, n = "media-streaming", 20_000
	prof, _ := workload.ByName(app)
	want := Prepare(prof, n)

	for _, tag := range []string{trace.SecInstsZ, trace.SecDesc, trace.SecBlocks} {
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
			assertPreparedEqual(t, want, got)
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
}

// TestStreamedStoreBitFlipWarmLoad covers the multi-window store: a
// workload artifact written by a cold prepare of several windows (one INSZ
// section each) is corrupted in its last window and must quarantine and
// regenerate like a single-window one.
func TestStreamedStoreBitFlipWarmLoad(t *testing.T) {
	const app, n = "media-streaming", 20_000
	prof, _ := workload.ByName(app)
	want := Prepare(prof, n)

	dir := t.TempDir()
	if _, err := newStreamedPipeline(t, n, 4096, dir).Workload(app); err != nil {
		t.Fatal(err)
	}
	path, spans := findArtifactWithSection(t, dir, trace.SecInstsZ)
	if len(spans) < 2 {
		t.Fatalf("workload artifact has %d INSZ sections, want one per window", len(spans))
	}
	flipPayloadBit(t, path, spans[len(spans)-1])

	warm := newTestPipeline(t, n, dir)
	got, err := warm.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	assertPreparedEqual(t, want, got)
	if q := warm.Quarantined(); q != 1 {
		t.Fatalf("Quarantined = %d, want 1", q)
	}
	assertQuarantined(t, dir, 1)
}

// TestStreamPanicRetries: a panic-cell fault on a multi-window cold
// prepare costs one failed attempt of the workload group, which draws
// `compute` keyed workload:<app> on every attempt. The retry prepares the
// workload equal to Prepare's and leaves nothing stray in the store root.
func TestStreamPanicRetries(t *testing.T) {
	const app, n = "sibench", 20_000
	prof, _ := workload.ByName(app)
	want := Prepare(prof, n)

	// every=2 fires one attempt in two per key at a key-derived phase;
	// under seed=3 the first attempt of workload:sibench fires.
	if err := faults.Install("panic-cell:every=2;seed=3"); err != nil {
		t.Fatal(err)
	}
	defer faults.Install("")
	dir := t.TempDir()
	pl := newStreamedPipeline(t, n, 4096, dir)
	got, err := pl.Workload(app)
	if err != nil {
		t.Fatal(err)
	}
	faults.Install("")
	assertPreparedEqual(t, want, got)
	if r := pl.Retries(); r < 1 {
		t.Fatalf("Retries = %d, want >= 1", r)
	}
	assertNoStrayStoreFiles(t, dir)
}

// TestGangBadMemberFailsOnlyItself: a deterministic per-cell failure is
// not retried and fails only its own cell — the healthy cells of the same
// batch still produce results. (The name is kept from when the bad cell
// shared a gang with the healthy ones.)
func TestGangBadMemberFailsOnlyItself(t *testing.T) {
	const n = 20_000
	s := NewSuite(n)
	s.Apps = []string{"media-streaming"}
	cells := []Cell{
		{"media-streaming", "lru", "none"},
		{"media-streaming", "no-such-scheme", "none"},
		{"media-streaming", "acic", "none"},
	}
	err := s.Require(cells...)
	if err == nil || !strings.Contains(err.Error(), "no-such-scheme") {
		t.Fatalf("Require = %v, want the bad cell's error", err)
	}
	for _, c := range []Cell{cells[0], cells[2]} {
		if _, err := s.Result(c.App, c.Scheme, c.Prefetcher); err != nil {
			t.Fatalf("healthy cell %v poisoned: %v", c, err)
		}
	}
	if fs := s.FaultStats(); fs.Retries != 0 {
		t.Fatalf("a deterministic failure was retried: %+v", fs)
	}
}

// TestSuiteContextCancel: a cancelled suite context fails not-yet-started
// cells with the context error.
func TestSuiteContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSuite(20_000)
	s.Apps = []string{"media-streaming"}
	s.Context = ctx
	err := s.Require(CrossCells(s.Apps, []string{"lru", "acic"}, "none")...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Require = %v, want context.Canceled", err)
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

// assertNoStrayStoreFiles checks store root dir holds only the schema
// subdirectory, and that it holds only artifact and result entries — no
// temps, no reason files (quarantine/ and tmp/ are where those belong).
func assertNoStrayStoreFiles(t *testing.T, dir string) {
	t.Helper()
	if root, err := os.ReadDir(dir); err != nil || len(root) != 1 || root[0].Name() != SchemaDir() {
		t.Fatalf("store root holds %v (%v), want only %s/", root, err, SchemaDir())
	}
	entries, err := os.ReadDir(filepath.Join(dir, SchemaDir()))
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
