package perf

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"acic/internal/experiments"
)

func sampleReport() *Report {
	return &Report{
		GoVersion:     "go1.24.0",
		GOOS:          "linux",
		GOARCH:        "amd64",
		N:             400000,
		PrepareWallNs: 50_000_000,
		PrepareStages: []experiments.StageStats{
			{Stage: "trace", Computed: 1}, {Stage: "program", Computed: 1},
			{Stage: "nextat", Computed: 1}, {Stage: "datalat", Computed: 1},
		},
		Cells: []Cell{
			{App: "a", Scheme: "lru", Prefetcher: "none", Accesses: 1000, Instructions: 400000,
				Runs: 3, NsPerAccess: 100, AccessesPerSec: 1e7},
			{App: "a", Scheme: "opt", Prefetcher: "fdp", Accesses: 1000, Instructions: 400000,
				Runs: 3, NsPerAccess: 250, AccessesPerSec: 4e6},
		},
		DistributedSweeps: []DistributedSweep{{
			Apps: []string{"a"}, Schemes: []string{"lru", "opt"}, Prefetcher: "fdp",
			PoolWidth: 1, HostCPUs: 2, Cells: 2, SingleWallNs: 2_000_000,
			Lanes: []DistributedLane{
				{Workers: 2, WallNs: 1_000_000, Speedup: 2, RemoteCells: 2, Identical: true},
			},
		}},
	}
}

// TestReportRoundTrip pins the JSON encode/decode cycle the trajectory
// files (bench/trajectory/BENCH_PR*.json) and CI comparisons rely on.
func TestReportRoundTrip(t *testing.T) {
	want := sampleReport()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := want.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(bad, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(bad); err == nil {
		t.Error("corrupt file must error")
	}
}

// TestCellLookupAndTables covers the report accessors the CLI renders.
func TestCellLookupAndTables(t *testing.T) {
	r := sampleReport()
	if c, ok := r.Cell("opt", "fdp"); !ok || c.NsPerAccess != 250 {
		t.Errorf("Cell lookup = %+v, %v", c, ok)
	}
	if _, ok := r.Cell("opt", "none"); ok {
		t.Error("absent cell must not be found")
	}
	if tbl := r.Table().String(); !strings.Contains(tbl, "lru") {
		t.Errorf("table missing rows:\n%s", tbl)
	}
	if st := r.DistributedSweepTable(); st == nil || !strings.Contains(st.String(), "2 workers") {
		t.Errorf("distributed sweep table = %v", st)
	}
	if st := (&Report{}).DistributedSweepTable(); st != nil {
		t.Error("empty report must have no distributed sweep table")
	}
}

// TestMeasureDistributedSweep runs the distributed lane measurement at a
// tiny trace length: every lane must produce results cell-identical to
// the single-process reference, completed remotely by its workers.
func TestMeasureDistributedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-lane simulation grids")
	}
	sweep, err := measureDistributedSweep(Config{N: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Cells != len(sweep.Apps)*len(sweep.Schemes) || sweep.SingleWallNs <= 0 {
		t.Fatalf("implausible sweep: %+v", sweep)
	}
	if len(sweep.Lanes) != len(DistributedWorkerCounts()) {
		t.Fatalf("measured %d lanes, want %d", len(sweep.Lanes), len(DistributedWorkerCounts()))
	}
	for _, l := range sweep.Lanes {
		if !l.Identical {
			t.Errorf("lane workers=%d diverged from single-process results", l.Workers)
		}
		if l.RemoteCells == 0 {
			t.Errorf("lane workers=%d completed no cells remotely", l.Workers)
		}
		if l.WallNs <= 0 || l.Speedup <= 0 {
			t.Errorf("implausible lane: %+v", l)
		}
	}
}

// TestCompare pins the per-cell delta math, the aggregate wall-clock
// speedup, and the regression detector.
func TestCompare(t *testing.T) {
	oldRep := sampleReport()
	newRep := &Report{Cells: []Cell{
		{App: "a", Scheme: "lru", Prefetcher: "none", Accesses: 1000, NsPerAccess: 50}, // 2x faster
		{App: "a", Scheme: "opt", Prefetcher: "fdp", Accesses: 1000, NsPerAccess: 300}, // 20% slower
		{App: "a", Scheme: "ship", Prefetcher: "fdp", Accesses: 1000, NsPerAccess: 10}, // new cell
	}}
	c := Compare(oldRep, newRep)
	if len(c.Deltas) != 2 {
		t.Fatalf("matched %d cells, want 2", len(c.Deltas))
	}
	if c.Deltas[0].Pct != -50 {
		t.Errorf("lru delta = %+.1f%%, want -50%%", c.Deltas[0].Pct)
	}
	if got := c.Deltas[1].Pct; got < 19.9 || got > 20.1 {
		t.Errorf("opt delta = %+.1f%%, want +20%%", got)
	}
	if got := c.WorstPct(); got < 19.9 || got > 20.1 {
		t.Errorf("WorstPct = %+.1f, want +20", got)
	}
	// Aggregate: old 100k+250k ns vs new 50k+300k ns.
	if got := c.Speedup(); got < 0.99 || got > 1.01 {
		t.Errorf("Speedup = %.3f, want 1.0", got)
	}
	if len(c.OnlyNew) != 1 || c.OnlyNew[0] != "a/ship/fdp" {
		t.Errorf("OnlyNew = %v", c.OnlyNew)
	}
	if !strings.Contains(c.Summary(), "matched 2 cells") {
		t.Errorf("Summary = %q", c.Summary())
	}
	if tbl := c.Table().String(); !strings.Contains(tbl, "-50.0%") {
		t.Errorf("delta table:\n%s", tbl)
	}
}

// TestCompareMissingCells: matched reports pass, while a cell present in
// only one report is a loud error naming the one-sided cells — never a
// silent zero-delta row.
func TestCompareMissingCells(t *testing.T) {
	if err := Compare(sampleReport(), sampleReport()).MissingCells(); err != nil {
		t.Errorf("identical reports reported missing cells: %v", err)
	}
	oldRep := sampleReport()
	newRep := &Report{Cells: []Cell{
		oldRep.Cells[0],
		{App: "a", Scheme: "ship", Prefetcher: "fdp", Accesses: 1000, NsPerAccess: 10},
	}}
	err := Compare(oldRep, newRep).MissingCells()
	if err == nil {
		t.Fatal("one-sided cells must error")
	}
	for _, want := range []string{"a/opt/fdp", "a/ship/fdp"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("MissingCells error %q does not name %s", err, want)
		}
	}
}

// TestMeasureTiny runs a minimal grid end to end: two schemes under one
// prefetcher. Small n keeps this fast; it exercises the real simulator.
func TestMeasureTiny(t *testing.T) {
	rep, err := Measure(Config{
		App:         "media-streaming",
		N:           20_000,
		Schemes:     []string{"lru", "opt"},
		Prefetchers: []string{"none"},
		Repeats:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("measured %d cells, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.NsPerAccess <= 0 || c.Accesses <= 0 {
			t.Errorf("implausible cell: %+v", c)
		}
	}
}

// TestMeasurePrepareStats: the report carries the prepare phase — cold it
// regenerates all four stage artifacts, and over a warm artifact store it
// regenerates none.
func TestMeasurePrepareStats(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		App: "media-streaming", N: 20_000,
		Schemes: []string{"lru"}, Prefetchers: []string{"none"},
		Repeats: 1, ArtifactDir: dir,
	}
	cold, err := Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.PrepareWallNs <= 0 || len(cold.PrepareStages) != 4 {
		t.Fatalf("implausible cold prepare: %dns, %d stages", cold.PrepareWallNs, len(cold.PrepareStages))
	}
	for _, st := range cold.PrepareStages {
		if st.Computed != 1 || st.FromStore != 0 {
			t.Errorf("cold stage %s: %+v, want computed=1", st.Stage, st)
		}
	}
	warm, err := Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range warm.PrepareStages {
		if st.Computed != 0 || st.FromStore != 1 {
			t.Errorf("warm stage %s: %+v, want fromStore=1", st.Stage, st)
		}
	}
	if warm.Cells[0].Accesses != cold.Cells[0].Accesses {
		t.Errorf("warm store changed the measured workload: %d vs %d accesses",
			warm.Cells[0].Accesses, cold.Cells[0].Accesses)
	}
	if s := warm.PrepareSummary(); !strings.Contains(s, "4 from store") || !strings.Contains(s, "peak heap") {
		t.Errorf("prepare summary: %q", s)
	}
}

// TestReportFaultsRoundTrip: the faults block and the interrupted flag
// survive the JSON cycle, and a clean report omits "interrupted" so the
// trajectory baselines stay byte-stable.
func TestReportFaultsRoundTrip(t *testing.T) {
	want := sampleReport()
	want.Faults = &experiments.FaultStats{
		Spec: "io-err:p=0.01", InjectedIOErrs: 3, Retries: 2, Quarantined: 1,
	}
	want.Interrupted = true
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := want.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"faults"`, `"interrupted": true`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("serialized report missing %s:\n%s", key, raw)
		}
	}
	clean := sampleReport()
	cleanPath := filepath.Join(t.TempDir(), "clean.json")
	if err := clean.WriteJSON(cleanPath); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "interrupted") {
		t.Errorf("clean report must omit the interrupted flag:\n%s", raw)
	}
}

// TestMeasureInterrupted: a cancelled Config.Context yields a partial
// report flagged interrupted — not an error — so the caller can flush it
// before exiting 130.
func TestMeasureInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Measure(Config{
		Context: ctx,
		App:     "media-streaming", N: 20_000,
		Schemes: []string{"lru"}, Prefetchers: []string{"none"},
		Repeats: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted {
		t.Error("report not marked interrupted")
	}
	if len(rep.Cells) != 0 {
		t.Errorf("cancelled run still measured %d cells", len(rep.Cells))
	}
	if rep.Faults == nil {
		t.Error("interrupted report must still carry the faults block")
	}
}

// TestMeasureFaultsBlock: every report carries the faults block; without
// an installed spec it is all-zero.
func TestMeasureFaultsBlock(t *testing.T) {
	rep, err := Measure(Config{
		App: "media-streaming", N: 20_000,
		Schemes: []string{"lru"}, Prefetchers: []string{"none"},
		Repeats: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == nil {
		t.Fatal("report missing faults block")
	}
	if rep.Faults.Any() || rep.Faults.Spec != "" {
		t.Errorf("fault-free run recorded fault activity: %+v", rep.Faults)
	}
}

// TestMeasureSkipsSweeps: a Config that asks for no sweep family
// measures the cells and nothing else.
func TestMeasureSkipsSweeps(t *testing.T) {
	rep, err := Measure(Config{
		App: "media-streaming", N: 20_000,
		Schemes: []string{"lru"}, Prefetchers: []string{"none"},
		Repeats: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SampledSweeps)+len(rep.DistributedSweeps) != 0 {
		t.Errorf("sweeps measured unasked: %+v", rep)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
