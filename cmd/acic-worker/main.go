// Command acic-worker is a stateless execution process for distributed
// grid runs (DESIGN.md §14). Point it at an acic-coord URL and it
// configures itself from GET /api/config — the coordinator suite's trace
// length, apps and sampling, and the shared store — then steals same-app
// cell batches, runs each on its local worker pool, publishes results to
// the shared store, and reports per-cell outcomes with the
// transient/deterministic split the coordinator's rescheduling keys on. It exits 0 when the coordinator
// reports the run is done, and may be killed at any time: its leased
// batches expire and requeue, and whatever it already published stays
// warm in the store.
//
//	acic-worker -coord http://127.0.0.1:9321
//	acic-worker -coord http://127.0.0.1:9321 -workers 4 -name rack2-a
package main

import (
	"flag"
	"fmt"
	"os"

	"acic/cmd/internal/cliutil"
	"acic/internal/distrib"
)

func main() {
	var (
		coord     = flag.String("coord", "", "coordinator base URL (required), e.g. http://127.0.0.1:9321")
		workers   = flag.Int("workers", 0, "simulation worker pool size (0 = ACIC_WORKERS or GOMAXPROCS)")
		name      = flag.String("name", "", "worker identity in claims and coordinator logs (empty = host-pid)")
		verbose   = flag.Bool("v", false, "log claims and batch completions on stderr")
		faultSpec string
	)
	cliutil.RegisterFaultSpec(flag.CommandLine, &faultSpec)
	flag.Parse()

	if *coord == "" {
		fmt.Fprintln(os.Stderr, "acic-worker: -coord URL is required")
		os.Exit(2)
	}
	if err := cliutil.InstallFaultSpec(faultSpec); err != nil {
		fmt.Fprintf(os.Stderr, "acic-worker: -fault-spec: %v\n", err)
		os.Exit(1)
	}
	ctx, stopSignals := cliutil.InterruptContext()
	defer stopSignals()

	opts := distrib.WorkerOptions{Coord: *coord, Workers: *workers, Name: *name}
	if *verbose {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if err := distrib.RunWorker(ctx, opts); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "acic-worker: interrupted")
			os.Exit(cliutil.ExitInterrupted)
		}
		fmt.Fprintf(os.Stderr, "acic-worker: %v\n", err)
		os.Exit(1)
	}
}
