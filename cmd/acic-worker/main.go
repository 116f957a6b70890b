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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"acic/cmd/internal/cliutil"
	"acic/internal/distrib"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is the whole command: it parses args, writes diagnostics to stderr
// and returns the process exit code, so every exit path runs the deferred
// cleanup (the signal handler's release among it).
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("acic-worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coord     = fs.String("coord", "", "coordinator base URL (required), e.g. http://127.0.0.1:9321")
		workers   = fs.Int("workers", 0, "simulation worker pool size (0 = ACIC_WORKERS or GOMAXPROCS)")
		name      = fs.String("name", "", "worker identity in claims and coordinator logs (empty = host-pid)")
		verbose   = fs.Bool("v", false, "log claims and batch completions on stderr")
		faultSpec string
	)
	cliutil.RegisterFaultSpec(fs, &faultSpec)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *coord == "" {
		fmt.Fprintln(stderr, "acic-worker: -coord URL is required")
		return 2
	}
	if err := cliutil.InstallFaultSpec(faultSpec); err != nil {
		fmt.Fprintf(stderr, "acic-worker: -fault-spec: %v\n", err)
		return 1
	}
	ctx, stopSignals := cliutil.InterruptContext()
	defer stopSignals()

	opts := distrib.WorkerOptions{Coord: *coord, Workers: *workers, Name: *name}
	if *verbose {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	if err := distrib.RunWorker(ctx, opts); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "acic-worker: interrupted")
			return cliutil.ExitInterrupted
		}
		fmt.Fprintf(stderr, "acic-worker: %v\n", err)
		return 1
	}
	return 0
}
