package perf

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"acic/internal/cpu"
	"acic/internal/experiments"
	"acic/internal/faults"
)

func sampleReport() *Report {
	return &Report{
		GoVersion:  "go1.24.0",
		GOOS:       "linux",
		GOARCH:     "amd64",
		HostCPUs:   2,
		GOMAXPROCS: 2,
		N:          400000,
		DistributedSweeps: []DistributedSweep{{
			Apps: []string{"a"}, Schemes: []string{"lru", "opt"}, Prefetcher: "fdp",
			PoolWidth: 1, HostCPUs: 2, Cells: 2, SingleWallNs: 2_000_000,
			Lanes: []DistributedLane{
				{Workers: 2, WallNs: 1_000_000, Speedup: 2, RemoteCells: 2, Identical: true},
			},
		}},
		Faults: &experiments.FaultStats{},
	}
}

// readReport decodes a report WriteJSON wrote.
func readReport(t *testing.T, path string) (*Report, []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	return &r, raw
}

// TestReportRoundTrip pins the JSON encode/decode cycle of the report
// acic-bench -bench-json writes, host record included.
func TestReportRoundTrip(t *testing.T) {
	want := sampleReport()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := want.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, raw := readReport(t, path)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}
	for _, key := range []string{`"go_version"`, `"host_cpus"`, `"gomaxprocs"`, `"results_identical"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("serialized report missing %s:\n%s", key, raw)
		}
	}
}

// TestDistributedSweepTable covers the table the CLI renders: the
// single-process reference row plus one row per lane.
func TestDistributedSweepTable(t *testing.T) {
	st := sampleReport().DistributedSweepTable()
	if st == nil {
		t.Fatal("report with a sweep has no table")
	}
	for _, want := range []string{"single-process", "2 workers", "2.00x"} {
		if !strings.Contains(st.String(), want) {
			t.Errorf("distributed sweep table missing %q:\n%s", want, st)
		}
	}
	if st := (&Report{}).DistributedSweepTable(); st != nil {
		t.Error("empty report must have no distributed sweep table")
	}
}

// TestMeasureDistributedSweep runs the measurement at a tiny trace
// length: every lane must produce results cell-identical to the
// single-process reference, completed remotely by its workers, and the
// report records its host.
func TestMeasureDistributedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-lane simulation grids")
	}
	rep, err := Measure(context.Background(), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Interrupted || len(rep.DistributedSweeps) != 1 {
		t.Fatalf("want one complete sweep, got %+v", rep)
	}
	if rep.HostCPUs <= 0 || rep.GOMAXPROCS <= 0 || rep.GoVersion == "" {
		t.Errorf("report host record incomplete: %s", rep.Host())
	}
	sweep := rep.DistributedSweeps[0]
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
	if rep.Faults == nil || rep.Faults.Any() || rep.Faults.Spec != "" {
		t.Errorf("fault-free run must carry an all-zero faults block: %+v", rep.Faults)
	}
}

// TestReportFaultsRoundTrip: the faults block and the interrupted flag
// survive the JSON cycle, and a clean report omits "interrupted".
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
	got, raw := readReport(t, path)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}
	for _, key := range []string{`"faults"`, `"interrupted": true`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("serialized report missing %s:\n%s", key, raw)
		}
	}
	cleanPath := filepath.Join(t.TempDir(), "clean.json")
	if err := sampleReport().WriteJSON(cleanPath); err != nil {
		t.Fatal(err)
	}
	if _, raw := readReport(t, cleanPath); strings.Contains(string(raw), "interrupted") {
		t.Errorf("clean report must omit the interrupted flag:\n%s", raw)
	}
}

// TestMeasureInterrupted: a cancelled context yields a partial
// report flagged interrupted — not an error — so the caller can flush it
// before exiting 130.
func TestMeasureInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Measure(ctx, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted {
		t.Error("report not marked interrupted")
	}
	if len(rep.DistributedSweeps) != 0 {
		t.Errorf("cancelled run still recorded a sweep: %+v", rep.DistributedSweeps)
	}
	if rep.Faults == nil || rep.HostCPUs <= 0 {
		t.Error("interrupted report must still carry the faults block and the host")
	}
}

// TestDistributedLaneInterrupted: once the context is cancelled the
// lane's workers stop claiming, so the lane must settle its queued
// batches itself and return the cancellation instead of waiting forever.
func TestDistributedLaneInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := experiments.CrossCells([]string{"media-streaming"}, []string{"lru"}, "fdp")
	done := make(chan error, 1)
	go func() {
		_, err := runDistributedLane(ctx, 20_000, &experiments.FaultStats{},
			cells, make([]cpu.Result, len(cells)), 1, 1)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled lane returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled lane still waiting on its coordinator")
	}
}

// TestMeasureFaultsBlock: the report's faults block counts the
// injector's activity and the recovery work of every lane, and injected
// panics never change a lane's results.
func TestMeasureFaultsBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-lane simulation grids")
	}
	if err := faults.Install("panic-cell:every=7;seed=1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { faults.Install("") })
	rep, err := Measure(context.Background(), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == nil || rep.Faults.InjectedPanics == 0 || rep.Faults.Retries == 0 {
		t.Errorf("faults block missed the injected panics: %+v", rep.Faults)
	}
	for _, l := range rep.DistributedSweeps[0].Lanes {
		if !l.Identical {
			t.Errorf("lane workers=%d diverged under injected panics", l.Workers)
		}
	}
}
