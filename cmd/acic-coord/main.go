// Command acic-coord runs the paper's experiments with plan execution
// sharded across processes (DESIGN.md §14). It enumerates the same
// deduplicated cell grid acic-bench would, but instead of simulating
// every cell locally it serves same-app batches to stateless acic-worker
// processes over a thin HTTP/JSON work-stealing protocol, alongside a
// shared artifact + result store on the same listener. Results flow back
// through the store, so the rendered output is byte-identical to
// single-process execution at any worker count — `acic-bench -exp all`
// and `acic-coord -exp all` diff clean.
//
// One listener serves everything: /api/* is the coordinator protocol,
// /blob/* and /healthz the shared store. Workers need only the URL:
//
//	acic-coord -exp all -listen 127.0.0.1:9321 &
//	acic-worker -coord http://127.0.0.1:9321 &
//	acic-worker -coord http://127.0.0.1:9321 &
//
// or, self-contained on one machine:
//
//	acic-coord -exp all -local-workers 2
//
// Worker death mid-batch is absorbed by lease expiry and requeueing;
// with no workers at all the coordinator (after -no-worker-timeout, if
// set) falls back to computing locally. -store-dir persists the shared
// store (default: a scratch directory removed at exit); -store-url
// points coordinator and workers at an external store server instead of
// the built-in one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"acic/cmd/internal/cliutil"
	"acic/internal/distrib"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the rendered
// experiments to stdout and diagnostics to stderr, and returns the process
// exit code, so every exit path runs the deferred cleanup (the scratch
// store's removal among it).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("acic-coord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
		listen   = fs.String("listen", "127.0.0.1:0", "address serving the coordinator API and the shared store (port 0 = ephemeral, printed at startup)")
		storeDir = fs.String("store-dir", "", "shared store directory served to workers (empty = scratch, removed at exit)")
		storeURL = fs.String("store-url", "", "external shared store URL for coordinator and workers (empty = serve -store-dir on -listen)")
		lease    = fs.Duration("lease", 30*time.Second, "batch lease: a claimed batch unreported past this is requeued to another worker")
		requeues = fs.Int("max-requeues", 3, "per-batch requeue budget (lease expiries + transient failures) before its cells run locally")
		noWorker = fs.Duration("no-worker-timeout", 0, "fall back to local execution when no worker has made contact for this long (0 = wait forever)")
		localW   = fs.Int("local-workers", 0, "spawn this many in-process workers (a self-contained distributed run)")
		sim      = cliutil.RegisterRun(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "acic-coord: "+format+"\n", args...)
		return 1
	}
	// The coordinator's suite reads and writes the shared store, so a
	// separate artifact directory would be overwritten, not used.
	if sim.ArtifactDir != "" {
		return fail("-artifact-dir (or ACIC_ARTIFACT_DIR) is not used here: give the shared store with -store-dir or -store-url")
	}
	if err := sim.Validate(); err != nil {
		return fail("%v", err)
	}
	if err := sim.InstallFaults(); err != nil {
		return fail("-fault-spec: %v", err)
	}
	selected, err := cliutil.Experiments(*exp)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	ctx, stopSignals := cliutil.InterruptContext()
	defer stopSignals()

	// The shared store: an external server when -store-url is given, else
	// our own -store-dir (scratch by default) served on the listener.
	dir := *storeDir
	if *storeURL == "" && dir == "" {
		scratch, err := os.MkdirTemp("", "acic-coord-store-*")
		if err != nil {
			return fail("%v", err)
		}
		defer os.RemoveAll(scratch)
		dir = scratch
	}

	mux := http.NewServeMux()
	if *storeURL == "" {
		storeHandler, err := engine.NewStoreHandler(experiments.StoreDir(dir))
		if err != nil {
			return fail("%v", err)
		}
		mux.Handle("/", storeHandler)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail("-listen %s: %v", *listen, err)
	}
	selfURL := "http://" + ln.Addr().String()
	advertised := *storeURL
	if advertised == "" {
		advertised = selfURL
	}

	// The coordinator's own suite: stores point at the shared root (the
	// local directory when we serve it ourselves — same bytes the HTTP
	// view publishes — or the external URL), and the coordinator, its
	// Remote, routes every Require batch through the work-stealing queue
	// and advertises the suite's Config to workers.
	if *storeURL != "" {
		sim.CacheDir, sim.ArtifactDir = *storeURL, *storeURL
	} else {
		sim.CacheDir, sim.ArtifactDir = dir, dir
	}
	suite := sim.NewSuite(ctx)
	coord := distrib.NewCoordinator(suite, distrib.CoordinatorOptions{
		StoreURL:        advertised,
		Lease:           *lease,
		MaxRequeues:     *requeues,
		NoWorkerTimeout: *noWorker,
	})
	defer coord.Close()
	// An interrupt stops the local workers claiming, so it also closes the
	// coordinator: queued batches fail back to the suite, whose cancelled
	// context settles them at once, instead of waiting on work nobody
	// will claim.
	defer context.AfterFunc(ctx, coord.Close)()
	// CacheError spins up the engine (resolving -n 0) before any worker
	// can fetch the config.
	if err := suite.CacheError(); err != nil {
		ln.Close()
		return fail("%v", err)
	}
	mux.Handle("/api/", coord.Handler())

	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Fprintf(stderr, "acic-coord: serving %s (store %s)\n", selfURL, advertised)

	var workers sync.WaitGroup
	for i := 0; i < *localW; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			opts := distrib.WorkerOptions{Coord: selfURL, Workers: sim.Workers, Name: fmt.Sprintf("local-%d", i)}
			if sim.Progress {
				opts.Log = func(format string, args ...any) {
					fmt.Fprintf(stderr, format+"\n", args...)
				}
			}
			if err := distrib.RunWorker(ctx, opts); err != nil && ctx.Err() == nil {
				fmt.Fprintf(stderr, "acic-coord: local worker %d: %v\n", i, err)
			}
		}(i)
	}

	outcome := cliutil.Render(ctx, "acic-coord", suite, selected, stdout, stderr)

	// Rendering is done: release the workers, then wait for the local
	// ones so their completions (and logs) finish before we report.
	// Remote workers learn of the shutdown from their next claim's Done
	// answer, so the listener lingers a couple of poll intervals — long
	// enough for every polling worker to hear it and exit 0 instead of
	// dying on a refused connection.
	coord.Close()
	workers.Wait()
	if ctx.Err() == nil {
		time.Sleep(1 * time.Second)
	}

	if sim.Progress {
		computed, fromCache, workloads := suite.Stats()
		fmt.Fprintf(stderr, "computed %d cells locally, %d from shared store, %d workloads prepared\n",
			computed, fromCache, workloads)
		st := coord.Stats()
		fmt.Fprintf(stderr, "distrib: %d batches (%d claimed, %d requeued), %d cells completed remotely, %d fell back local\n",
			st.Batches, st.Claimed, st.Requeued, st.Completed, st.LocalFell)
		if fs := suite.FaultStats(); sim.FaultSpec != "" || fs.Any() {
			fmt.Fprintln(stderr, fs)
		}
	}
	return outcome.ExitCode("acic-coord", stderr)
}
