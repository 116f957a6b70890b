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
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"acic/cmd/internal/cliutil"
	"acic/internal/distrib"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		n        = flag.Int("n", 0, "trace length in instructions (0 = ACIC_BENCH_N or 400000)")
		apps     = flag.String("apps", "", "restrict datacenter apps (comma-separated)")
		listen   = flag.String("listen", "127.0.0.1:0", "address serving the coordinator API and the shared store (port 0 = ephemeral, printed at startup)")
		storeDir = flag.String("store-dir", "", "shared store directory served to workers (empty = scratch, removed at exit)")
		storeURL = flag.String("store-url", "", "external shared store URL for coordinator and workers (empty = serve -store-dir on -listen)")
		lease    = flag.Duration("lease", 30*time.Second, "batch lease: a claimed batch unreported past this is requeued to another worker")
		requeues = flag.Int("max-requeues", 3, "per-batch requeue budget (lease expiries + transient failures) before its cells run locally")
		noWorker = flag.Duration("no-worker-timeout", 0, "fall back to local execution when no worker has made contact for this long (0 = wait forever)")
		localW   = flag.Int("local-workers", 0, "spawn this many in-process workers (a self-contained distributed run)")
		sim      = cliutil.RegisterSim(flag.CommandLine)
		progress = flag.Bool("progress", false, "report per-cell progress and scheduling stats on stderr")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "acic-coord: "+format+"\n", args...)
		os.Exit(1)
	}
	if err := sim.Validate(); err != nil {
		fail("%v", err)
	}
	if err := sim.InstallFaults(); err != nil {
		fail("-fault-spec: %v", err)
	}

	ctx, stopSignals := cliutil.InterruptContext()
	defer stopSignals()

	// The shared store: an external server when -store-url is given, else
	// our own -store-dir (scratch by default) served on the listener.
	dir := *storeDir
	if *storeURL == "" && dir == "" {
		scratch, err := os.MkdirTemp("", "acic-coord-store-*")
		if err != nil {
			fail("%v", err)
		}
		defer os.RemoveAll(scratch)
		dir = scratch
	}

	mux := http.NewServeMux()
	if *storeURL == "" {
		storeHandler, err := engine.NewStoreHandler(dir)
		if err != nil {
			fail("%v", err)
		}
		mux.Handle("/", storeHandler)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail("-listen %s: %v", *listen, err)
	}
	selfURL := "http://" + ln.Addr().String()
	advertised := *storeURL
	if advertised == "" {
		advertised = selfURL
	}

	cfg := distrib.Config{
		N:            experiments.NewSuite(*n).N, // resolves 0 -> default
		SampleSets:   sim.SampleSets,
		SampleOffset: sim.SampleOffset,
		StoreURL:     advertised,
	}
	if *apps != "" {
		cfg.Apps = strings.Split(*apps, ",")
	}

	coord := distrib.NewCoordinator(distrib.CoordinatorOptions{
		Config:          cfg,
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
	mux.Handle("/api/", coord.Handler())

	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "acic-coord: serving %s (store %s)\n", selfURL, advertised)

	var workers sync.WaitGroup
	for i := 0; i < *localW; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			opts := distrib.WorkerOptions{Coord: selfURL, Workers: sim.Workers, Name: fmt.Sprintf("local-%d", i)}
			if *progress {
				opts.Log = func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, format+"\n", args...)
				}
			}
			if err := distrib.RunWorker(ctx, opts); err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "acic-coord: local worker %d: %v\n", i, err)
			}
		}(i)
	}

	// The coordinator's own suite: stores point at the shared root (the
	// local directory when we serve it ourselves — same bytes the HTTP
	// view publishes — or the external URL), and Remote routes every
	// Require batch through the work-stealing queue.
	suite := experiments.NewSuite(cfg.N)
	suite.Context = ctx
	suite.Apps = cfg.Apps
	suite.Workers = sim.Workers
	suite.SampleSets = cfg.SampleSets
	suite.SampleOffset = cfg.SampleOffset
	suite.Remote = coord
	if *storeURL != "" {
		suite.CacheDir, suite.ArtifactDir = *storeURL, *storeURL
	} else {
		suite.CacheDir, suite.ArtifactDir = dir, dir
	}
	if *progress {
		suite.Progress = func(done, total int, label string) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, label)
		}
	}
	if err := suite.CacheError(); err != nil {
		fail("%v", err)
	}

	exps := experiments.Registry()
	want := map[string]bool{}
	if *exp != "all" {
		for _, w := range strings.Split(*exp, ",") {
			w = strings.TrimSpace(w)
			if _, ok := experiments.LookupExperiment(w); !ok {
				fail("unknown experiment %q (see acic-bench -list)", w)
			}
			want[w] = true
		}
	}

	var failed []string
	interrupted := false
	for _, e := range exps {
		if *exp != "all" && !want[e.Slug] {
			continue
		}
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		start := time.Now()
		out, err := e.Run(suite)
		if err != nil {
			if ctx.Err() != nil {
				interrupted = true
				break
			}
			failed = append(failed, e.Slug)
			fmt.Fprintf(os.Stderr, "acic-coord: %s: %v\n", e.Slug, err)
			continue
		}
		fmt.Printf("=== %s: %s (%.1fs)\n%s\n", e.Slug, e.Desc, time.Since(start).Seconds(), out)
	}

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

	if *progress {
		computed, fromCache, workloads := suite.Stats()
		fmt.Fprintf(os.Stderr, "computed %d cells locally, %d from shared store, %d workloads prepared\n",
			computed, fromCache, workloads)
		st := coord.Stats()
		fmt.Fprintf(os.Stderr, "distrib: %d batches (%d claimed, %d requeued), %d cells completed remotely, %d fell back local\n",
			st.Batches, st.Claimed, st.Requeued, st.Completed, st.LocalFell)
		if fs := suite.FaultStats(); sim.FaultSpec != "" || fs.Any() {
			fmt.Fprintln(os.Stderr, fs)
		}
	}
	switch {
	case interrupted:
		fmt.Fprintln(os.Stderr, "acic-coord: interrupted — output above is partial")
		os.Exit(cliutil.ExitInterrupted)
	case len(failed) > 0:
		fmt.Fprintf(os.Stderr, "acic-coord: %d experiment(s) failed: %s\n", len(failed), strings.Join(failed, ", "))
		os.Exit(1)
	}
}
