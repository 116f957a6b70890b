// Package perf measures the one thing the frozen end-to-end benchmark
// (perfbench/) cannot see: grid wall-clock against worker count. Measure
// runs the distributed sweep (distributed.go, DESIGN.md §14) — the full
// datacenter-apps × DistributedSchemes grid under FDP, single-process and
// through a coordinator at each worker count, every lane cold and
// verified cell for cell — and returns a Report that records its host and
// serializes to JSON (acic-bench -bench-json).
//
// Everything else has one measurement elsewhere: per-cell simulator
// throughput is perfbench's cpu.minst_per_s.* and icache.fetch_ns.* (plus
// BenchmarkSimulatorRun), prepare wall-clock and memory are perfbench's
// prepare-cold-long workload, and the set-sampled lane's error bars are
// acic-bench -sample-validate. The files under bench/trajectory/ up to
// BENCH_PR9.json are history in the older per-cell shape.
package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"acic/internal/experiments"
)

// Report is one distributed-sweep measurement and the host it ran on.
type Report struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	N          int    `json:"trace_instructions"`
	// DistributedSweeps holds the sweep (distributed.go); it is empty
	// only when the run was interrupted before the single-process lane
	// finished.
	DistributedSweeps []DistributedSweep `json:"distributed_sweeps,omitempty"`
	// Faults records the run's fault-injection and recovery activity
	// (always present; all-zero without -fault-spec). Injected faults on
	// the measurement path would distort timings, so bench runs are
	// normally fault-free — the block exists so CI can assert that and so
	// faulted diagnostics runs are self-describing.
	Faults *experiments.FaultStats `json:"faults,omitempty"`
	// Interrupted marks a report cut short by SIGINT/SIGTERM (Measure's
	// ctx): the lanes present are valid, the ladder is partial.
	Interrupted bool `json:"interrupted,omitempty"`
}

// Measure runs the distributed sweep over n-instruction workloads (0 =
// experiments.DefaultTraceLen) and returns its report. Cancelling ctx
// (SIGINT/SIGTERM in acic-bench) yields a partial Report with Interrupted
// set, not an error; the caller decides the exit code.
func Measure(ctx context.Context, n int) (*Report, error) {
	if n <= 0 {
		n = experiments.DefaultTraceLen()
	}
	rep := &Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		N:          n,
		Faults:     &experiments.FaultStats{},
	}
	sweep, err := measureDistributedSweep(ctx, n, rep.Faults)
	if ctx.Err() != nil {
		rep.Interrupted = true
	} else if err != nil {
		return nil, fmt.Errorf("perf: distributed sweep: %w", err)
	}
	if sweep.SingleWallNs > 0 {
		rep.DistributedSweeps = append(rep.DistributedSweeps, sweep)
	}
	return rep, nil
}

// WriteJSON serializes the report to path with stable formatting.
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Host renders the report's host record as one line.
func (r *Report) Host() string {
	return fmt.Sprintf("host: %s %s/%s, host_cpus %d, gomaxprocs %d",
		r.GoVersion, r.GOOS, r.GOARCH, r.HostCPUs, r.GOMAXPROCS)
}
