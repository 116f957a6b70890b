package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"acic/internal/api"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
	"acic/internal/faults"
)

// client speaks the coordinator protocol. Transport failures — real or
// injected net-err faults — come back MarkTransient, so callers retry
// them with the engine's standard policy; HTTP 5xx is transient too
// (the coordinator may be restarting), anything else is final.
type client struct {
	base string
	hc   *http.Client
}

func newClient(coord string) *client {
	return &client{base: strings.TrimRight(coord, "/"), hc: &http.Client{Timeout: 60 * time.Second}}
}

// call performs one JSON round trip; out may be nil for fire-and-forget
// endpoints.
func (cl *client) call(method, path string, in, out any) error {
	if faults.FailNet(method, path) {
		return engine.MarkTransient(errors.New("distrib: injected net-err"))
	}
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, cl.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return engine.MarkTransient(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		// The coordinator answers errors as api.Envelope; decode it so
		// the typed code and message survive, and classify by the
		// envelope's transient flag or the status class.
		apiErr := api.ReadError(resp)
		err := fmt.Errorf("distrib: %s %s: %w", method, path, apiErr)
		if resp.StatusCode >= 500 || apiErr.Transient {
			return engine.MarkTransient(err)
		}
		return err
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (cl *client) config() (Config, error) {
	var cfg Config
	err := cl.call(http.MethodGet, "/api/config", nil, &cfg)
	return cfg, err
}

func (cl *client) claim(req ClaimRequest) (ClaimResponse, error) {
	var resp ClaimResponse
	err := cl.call(http.MethodPost, "/api/claim", req, &resp)
	return resp, err
}

func (cl *client) complete(req CompleteRequest) error {
	return cl.call(http.MethodPost, "/api/complete", req, nil)
}

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Coord is the coordinator base URL (also serving the store by
	// default; the fetched Config carries the authoritative StoreURL).
	Coord string
	// Workers bounds the worker's pool (0 = ACIC_WORKERS or GOMAXPROCS).
	Workers int
	// Name identifies this worker in claims and coordinator logs
	// ("" = host-pid).
	Name string
	// Log, if non-nil, receives one-line progress messages.
	Log func(format string, args ...any)
}

// workerFailBudget bounds consecutive coordinator round-trip failures
// (after per-call retries) before the worker gives up: the coordinator is
// gone, and its lease sweeper has already re-owned our batches.
const workerFailBudget = 5

// RunWorker runs one stateless worker against a coordinator: fetch the
// run Config, build a Suite whose cache and artifact store point at the
// shared StoreURL, then steal batches until the coordinator reports Done
// (or ctx cancels). Every claimed batch is executed locally via
// Suite.Require — the same code path a single-process run takes, which is
// the determinism argument: results are computed identically and
// published to the same content-addressed entries.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	name := opts.Name
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	cl := newClient(opts.Coord)

	cfg, err, _ := engine.Retry(engine.DefaultRetry(), "config", cl.config)
	if err != nil {
		return fmt.Errorf("distrib: worker %s: fetch config from %s: %w", name, opts.Coord, err)
	}
	if cfg.StoreURL == "" {
		return fmt.Errorf("distrib: worker %s: coordinator config has no store URL", name)
	}

	s := workerSuite(ctx, cfg, opts.Workers)
	if err := s.CacheError(); err != nil {
		return fmt.Errorf("distrib: worker %s: shared store: %w", name, err)
	}
	logf("worker %s: n=%d store=%s width=%d", name, s.N, cfg.StoreURL, func() int {
		r, i, _ := s.Occupancy()
		return r + i
	}())

	var inflight sync.WaitGroup
	defer inflight.Wait()
	fails := 0
	for ctx.Err() == nil {
		running, idle, queued := s.Occupancy()
		want := idle - queued
		if want < 0 {
			want = 0
		}
		resp, err := cl.claim(ClaimRequest{Worker: name, Running: running, Idle: idle, Queued: queued, Want: want})
		if err != nil {
			if !engine.IsTransient(err) {
				return fmt.Errorf("distrib: worker %s: claim: %w", name, err)
			}
			fails++
			if fails >= workerFailBudget {
				return fmt.Errorf("distrib: worker %s: coordinator unreachable: %w", name, err)
			}
			sleepCtx(ctx, time.Duration(fails)*200*time.Millisecond)
			continue
		}
		fails = 0
		if resp.Done {
			break
		}
		if len(resp.Batches) == 0 {
			wait := time.Duration(resp.WaitMillis) * time.Millisecond
			if wait <= 0 {
				wait = 50 * time.Millisecond
			}
			sleepCtx(ctx, wait)
			continue
		}
		for _, b := range resp.Batches {
			inflight.Add(1)
			go func(b Batch) {
				defer inflight.Done()
				results := runBatch(s, b)
				req := CompleteRequest{Worker: name, BatchID: b.ID, Results: results}
				if _, err, _ := engine.Retry(engine.DefaultRetry(), fmt.Sprintf("complete:%d", b.ID),
					func() (struct{}, error) { return struct{}{}, cl.complete(req) }); err != nil {
					// The completion is lost; the lease sweeper will
					// requeue the batch, and our published results warm
					// the store for whoever re-runs it.
					logf("worker %s: batch %d completion lost: %v", name, b.ID, err)
				}
			}(b)
		}
		logf("worker %s: claimed %d batch(es)", name, len(resp.Batches))
	}
	return ctx.Err()
}

// workerSuite builds the suite a worker runs its batches on: the
// coordinator suite's Config as received, with this process's pool width
// and both stores at the shared StoreURL.
func workerSuite(ctx context.Context, cfg Config, workers int) *experiments.Suite {
	cfg.Workers = workers
	cfg.CacheDir, cfg.ArtifactDir = cfg.StoreURL, cfg.StoreURL
	return &experiments.Suite{Config: cfg.Config, Context: ctx}
}

// runBatch executes one batch on the worker's suite and classifies each
// cell's outcome into the wire taxonomy. Transient failures (injected
// faults past the retry budget, cancellation mid-batch) are Forgotten
// from the local memo so a requeue of the same cell to this worker
// recomputes instead of replaying the memoized error.
func runBatch(s *experiments.Suite, b Batch) []CellResult {
	cells := make([]experiments.Cell, len(b.Cells))
	for i, c := range b.Cells {
		cells[i] = experiments.CellFromAPI(c)
	}
	s.Require(cells...) // per-cell outcomes read below
	out := make([]CellResult, len(cells))
	for i, c := range cells {
		_, err := s.Result(c.App, c.Scheme, c.Prefetcher)
		if err == nil {
			out[i] = CellResult{Cell: b.Cells[i]}
			continue
		}
		transient := engine.IsTransient(err) ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		code := api.CodeCellError
		if transient {
			s.Forget(c)
			code = api.CodeTransient
		}
		out[i] = CellResult{Cell: b.Cells[i], Error: &api.Error{
			Code: code, Message: err.Error(), Transient: transient, Cell: c.String()}}
	}
	return out
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
