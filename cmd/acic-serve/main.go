// Command acic-serve is the simulation-as-a-service daemon: one
// long-lived process holds the warm artifact store, prepared Programs,
// and the per-cell result memo, and answers HTTP/JSON queries for grid
// cells, rendered figures, and the experiment registry under the
// versioned /v1/ API (internal/api, DESIGN.md §15). Every consumer of
// the engine used to pay cold prepare per process; against a serve node
// the first query warms the pipeline and every later one reads memory
// or the content-addressed store.
//
//	acic-serve -listen 127.0.0.1:9322 -n 400000 -preload grid &
//	curl 'http://127.0.0.1:9322/v1/cells?app=web-search&scheme=acic,lru'
//	curl http://127.0.0.1:9322/v1/figures/fig10
//
// Endpoints:
//
//	GET /v1/cells?app=&scheme=&prefetcher= — grid cell results; comma
//	    lists cross-product, computed as one batch
//	GET /v1/figures/{name}  — rendered experiment output, byte-identical
//	    to acic-bench's figure body for the same configuration
//	GET /v1/experiments     — the registry (slug + description)
//	GET /v1/healthz         — liveness
//	GET /v1/stats           — engine/fault/occupancy counters
//
// Cell and figure responses carry strong ETags derived from the
// content-addressed result-cache keys (experiments/keys.go), so
// If-None-Match re-queries answer 304 without simulating and any HTTP
// cache layer can front the daemon. -store-url points the suite at a
// PR 9 shared store server instead of local directories, letting a
// serve node front a distributed grid's results. Per-request fault
// budgets (-fault-budget) and a per-cell circuit breaker
// (-breaker-threshold/-breaker-cooldown) keep a degraded store or a
// deterministically failing cell from burning compute on every query.
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
	"time"

	"acic/cmd/internal/cliutil"
	"acic/internal/api"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is the whole daemon: it parses args, serves until interrupted and
// writes diagnostics to stderr, and returns the process exit code, so
// every exit path runs the deferred cleanup (the signal handler's release
// among it).
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("acic-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "127.0.0.1:8091", "address to serve the /v1/ API on (port 0 = ephemeral, printed at startup)")
		preload  = fs.String("preload", "", "warm at startup: 'grid' (the paper's scheme grid under fdp), 'all' (every registry experiment), or a comma-separated slug list; serving starts immediately, the preload fills the memo in the background")
		storeURL = fs.String("store-url", "", "shared store server URL for results and artifacts (fronts a distributed grid's store; overrides -cache-dir/-artifact-dir)")
		budget   = fs.Int64("fault-budget", 0, "per-request fault budget: refuse a request (503 fault_budget_exhausted) whose service consumed more than this many fault recoveries (0 = unlimited)")
		brkN     = fs.Int("breaker-threshold", engine.DefaultBreakerThreshold, "circuit breaker: consecutive deterministic cell failures before the cell's key trips open")
		brkCool  = fs.Duration("breaker-cooldown", engine.DefaultBreakerCooldown, "circuit breaker: how long a tripped key refuses before admitting a half-open probe")
		sim      = cliutil.RegisterRun(fs)
	)
	sim.RegisterCacheDir(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "acic-serve: "+format+"\n", args...)
		return 1
	}
	if err := sim.Validate(); err != nil {
		return fail("%v", err)
	}
	if err := sim.InstallFaults(); err != nil {
		return fail("-fault-spec: %v", err)
	}
	ctx, stopSignals := cliutil.InterruptContext()
	defer stopSignals()

	if *storeURL != "" {
		sim.CacheDir, sim.ArtifactDir = *storeURL, *storeURL
	}
	suite := sim.NewSuite(ctx)
	if err := suite.CacheError(); err != nil {
		return fail("%v", err)
	}

	srv := newServer(suite, engine.NewBreaker(*brkN, *brkCool), *budget)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail("-listen %s: %v", *listen, err)
	}
	httpSrv := &http.Server{Handler: srv.handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "acic-serve: serving http://%s%s (n=%d)\n", ln.Addr(), api.Prefix, suite.N)

	// Preload in the background: serving is already up, and any query
	// arriving mid-preload simply coalesces with it through the suite's
	// per-cell singleflight.
	go func() {
		if err := runPreload(srv, *preload); err != nil && ctx.Err() == nil {
			fmt.Fprintf(stderr, "acic-serve: preload: %v\n", err)
			return
		}
		if *preload != "" && ctx.Err() == nil {
			fmt.Fprintln(stderr, "acic-serve: preload done")
		}
	}()

	select {
	case <-ctx.Done():
		// Graceful drain: in-flight requests get a bounded grace period;
		// cells already simulating run to completion (suite.Context
		// cancels only work that has not started).
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
		fmt.Fprintln(stderr, "acic-serve: interrupted, drained")
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			return fail("serve: %v", err)
		}
	}
	return 0
}

// runPreload warms the suite per the -preload spelling. "grid" computes
// the paper's datacenter scheme grid under fdp (the cells behind Figs
// 10–17); anything else is an -exp value ("all" or a slug list), and
// those experiments render through the server's figure group, so later
// /v1/figures queries for the same slugs are pure memo hits.
func runPreload(s *server, spec string) error {
	switch spec {
	case "":
		return nil
	case "grid":
		cells := experiments.CrossCells(s.suite.AppNames(),
			append([]string{experiments.Baseline}, experiments.Fig10Schemes...), "fdp")
		return s.suite.Require(cells...)
	}
	exps, err := cliutil.Experiments(spec)
	if err != nil {
		return err
	}
	var errs []error
	for _, e := range exps {
		if _, err := s.figures.Get(e.Slug); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", e.Slug, err))
		}
	}
	return errors.Join(errs...)
}
