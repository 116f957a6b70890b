package distrib

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"acic/internal/api"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
)

// CoordinatorOptions configures NewCoordinator. The zero value of every
// field is usable.
type CoordinatorOptions struct {
	// StoreURL is the shared store advertised to workers in GET
	// /api/config, next to the suite's Config.
	StoreURL string
	// Lease bounds how long a claimed batch may stay unreported before
	// the sweeper presumes its worker dead and requeues it (default 30s —
	// generously above one batch's latency at bench trace lengths).
	Lease time.Duration
	// MaxRequeues bounds how many times one batch's cells are requeued
	// (lease expiries and transient failures both count) before they fail
	// transiently back into the Suite's local ladder. Default 3.
	MaxRequeues int
	// NoWorkerTimeout, when > 0, bounds how long queued work waits with
	// no worker contact at all before failing back to local execution;
	// 0 waits forever.
	NoWorkerTimeout time.Duration
}

// CoordinatorStats snapshots scheduling activity.
type CoordinatorStats struct {
	Batches   int64 // batches ever enqueued (including requeues)
	Claimed   int64 // batches handed to workers
	Completed int64 // cells completed by workers (success or final error)
	Requeued  int64 // batches requeued after lease expiry or transient failure
	LocalFell int64 // cells failed back to the Suite's local ladder
}

// batch is the coordinator-side state of one steal unit.
type batch struct {
	id       int64
	app      string
	cells    []experiments.Cell
	done     func(experiments.Cell, error)
	requeues int
	deadline time.Time
	worker   string
}

// Coordinator is the work-stealing scheduler behind acic-coord. It
// implements experiments.Remote: the Suite submits same-app cell groups,
// workers claim them over HTTP, and each cell's completion flows back
// through the done callback with PR 8's transient/deterministic split
// intact. All methods are safe for concurrent use.
type Coordinator struct {
	suite       *experiments.Suite
	storeURL    string
	lease       time.Duration
	maxRequeues int
	noWorker    time.Duration

	mu          sync.Mutex
	nextID      int64
	ready       []*batch
	leased      map[int64]*batch
	closed      bool
	lastContact time.Time

	stopOnce sync.Once
	stop     chan struct{}

	batches   atomic.Int64
	claimed   atomic.Int64
	completed atomic.Int64
	requeued  atomic.Int64
	localFell atomic.Int64
}

var _ experiments.Remote = (*Coordinator)(nil)

// NewCoordinator creates the coordinator of s, makes it s's Remote
// executor and starts its lease sweeper. GET /api/config serves s's
// Config, so configure s first. Call Close when the run is over.
func NewCoordinator(s *experiments.Suite, opts CoordinatorOptions) *Coordinator {
	c := &Coordinator{
		suite:       s,
		storeURL:    opts.StoreURL,
		lease:       opts.Lease,
		maxRequeues: opts.MaxRequeues,
		noWorker:    opts.NoWorkerTimeout,
		leased:      make(map[int64]*batch),
		lastContact: time.Now(),
		stop:        make(chan struct{}),
	}
	if c.lease <= 0 {
		c.lease = 30 * time.Second
	}
	if c.maxRequeues <= 0 {
		c.maxRequeues = 3
	}
	s.Remote = c
	go c.sweep()
	return c
}

// Submit implements experiments.Remote: one same-app cell group becomes
// one batch on the ready queue. Never blocks on completion. After Close
// no worker will claim it, so the batch fails back to local execution.
func (c *Coordinator) Submit(app string, cells []experiments.Cell, done func(experiments.Cell, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &batch{app: app, cells: cells, done: done}
	if c.closed {
		c.failLocal(b, "coordinator closed")
		return
	}
	c.enqueue(b)
}

// enqueue assigns a fresh ID and appends to the ready queue (FIFO).
// Caller holds mu.
func (c *Coordinator) enqueue(b *batch) {
	c.nextID++
	b.id = c.nextID
	b.deadline = time.Time{}
	b.worker = ""
	c.ready = append(c.ready, b)
	c.batches.Add(1)
}

// failLocal completes every cell of b with a transient error, dropping
// the work back into the Suite, which computes it locally. Called with mu
// held for queue surgery; the done callbacks run without the lock (they
// may simulate).
func (c *Coordinator) failLocal(b *batch, cause string) {
	cells, done := b.cells, b.done
	c.localFell.Add(int64(len(cells)))
	go func() {
		for _, cell := range cells {
			done(cell, engine.MarkTransient(fmt.Errorf("distrib: %s: %s", cell, cause)))
		}
	}()
}

// Claim grants up to req.Want ready batches, stamping each with a lease.
// A Want of 0 (or an empty queue) grants nothing; Done reports the
// coordinator is closed and the worker should exit.
func (c *Coordinator) Claim(req ClaimRequest) ClaimResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastContact = time.Now()
	if c.closed {
		return ClaimResponse{Done: true}
	}
	n := req.Want
	if n > len(c.ready) {
		n = len(c.ready)
	}
	if n <= 0 {
		return ClaimResponse{WaitMillis: 50}
	}
	resp := ClaimResponse{Batches: make([]Batch, 0, n)}
	deadline := time.Now().Add(c.lease)
	for _, b := range c.ready[:n] {
		b.deadline = deadline
		b.worker = req.Worker
		c.leased[b.id] = b
		wire := make([]api.Cell, len(b.cells))
		for i, cell := range b.cells {
			wire[i] = cell.API()
		}
		resp.Batches = append(resp.Batches, Batch{ID: b.id, App: b.app, Cells: wire})
	}
	c.ready = append(c.ready[:0], c.ready[n:]...)
	c.claimed.Add(int64(n))
	return resp
}

// Complete settles a reported batch. A stale BatchID — the lease already
// expired and the batch was requeued under a new ID — is ignored: the
// requeued copy owns the cells now, and whatever the late worker did
// publish still warms the shared store. Cells the report omits are
// treated as transient failures.
func (c *Coordinator) Complete(req CompleteRequest) {
	c.mu.Lock()
	b, ok := c.leased[req.BatchID]
	if ok {
		delete(c.leased, req.BatchID)
	}
	c.lastContact = time.Now()
	c.mu.Unlock()
	if !ok {
		return
	}

	reported := make(map[api.Cell]CellResult, len(req.Results))
	for _, r := range req.Results {
		reported[r.Cell] = r
	}
	var transient []experiments.Cell
	for _, cell := range b.cells {
		r, ok := reported[cell.API()]
		switch {
		case !ok || (r.Error != nil && r.Error.Transient):
			transient = append(transient, cell)
		case r.Error != nil:
			// A deterministic wire error settles the cell as-is: the
			// *api.Error flows into the suite's memo as the cell's typed
			// error, exactly like a local CellError would.
			c.completed.Add(1)
			b.done(cell, r.Error)
		default:
			c.completed.Add(1)
			b.done(cell, nil)
		}
	}
	if len(transient) == 0 {
		return
	}
	c.requeueCells(b, transient, "transient failures exhausted the requeue budget")
}

// requeueCells puts a batch's still-pending cells back on the ready
// queue — or, past the requeue budget, fails them back to local
// execution.
func (c *Coordinator) requeueCells(b *batch, cells []experiments.Cell, cause string) {
	nb := &batch{app: b.app, cells: cells, done: b.done, requeues: b.requeues + 1}
	c.mu.Lock()
	defer c.mu.Unlock()
	if nb.requeues > c.maxRequeues || c.closed {
		c.failLocal(nb, cause)
		return
	}
	c.requeued.Add(1)
	c.enqueue(nb)
}

// sweep requeues leased batches whose deadline passed (their worker is
// presumed dead) and, under NoWorkerTimeout, fails queued work back to
// local execution when no worker has made contact for too long.
func (c *Coordinator) sweep() {
	interval := c.lease / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		c.mu.Lock()
		var expired []*batch
		for id, b := range c.leased {
			if now.After(b.deadline) {
				delete(c.leased, id)
				expired = append(expired, b)
			}
		}
		var starved []*batch
		if c.noWorker > 0 && len(c.ready) > 0 && now.Sub(c.lastContact) > c.noWorker {
			starved = c.ready
			c.ready = nil
			for _, b := range starved {
				c.failLocal(b, "no worker contact")
			}
		}
		c.mu.Unlock()
		for _, b := range expired {
			c.requeueCells(b, b.cells, fmt.Sprintf("lease expired %d times (worker %q presumed dead)", b.requeues+1, b.worker))
		}
	}
}

// Close ends the run: subsequent claims answer Done, the sweeper stops,
// and anything still queued — or submitted later — fails back to local
// execution (normally nothing: the Suite's Require returns only once
// every submitted cell completed; an interrupted run is the exception).
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	orphans := c.ready
	c.ready = nil
	for _, b := range orphans {
		c.failLocal(b, "coordinator closed")
	}
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
}

// Stats snapshots the coordinator's scheduling counters.
func (c *Coordinator) Stats() CoordinatorStats {
	return CoordinatorStats{
		Batches:   c.batches.Load(),
		Claimed:   c.claimed.Load(),
		Completed: c.completed.Load(),
		Requeued:  c.requeued.Load(),
		LocalFell: c.localFell.Load(),
	}
}

// Handler returns the coordinator's HTTP API:
//
//	GET  /api/config   — the suite's Config and StoreURL, for stateless worker setup
//	POST /api/claim    — ClaimRequest -> ClaimResponse
//	POST /api/complete — CompleteRequest -> 204
//
// Errors are api.Envelope: malformed bodies are bad_request, wrong
// verbs are method_not_allowed. Mount it alongside an
// engine.NewStoreHandler on one listener and a single -coord URL serves
// both scheduling and the shared store.
func (c *Coordinator) Handler() http.Handler {
	// Methods are checked by hand rather than with mux method patterns so
	// a wrong verb gets the envelope, not ServeMux's plain-text 405.
	requireMethod := func(w http.ResponseWriter, r *http.Request, method string) bool {
		if r.Method != method {
			api.WriteError(w, http.StatusMethodNotAllowed, &api.Error{
				Code: api.CodeMethodNotAllowed, Message: r.URL.Path + " requires " + method})
			return false
		}
		return true
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/config", func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		api.WriteJSON(w, http.StatusOK, Config{Config: c.suite.Config, StoreURL: c.storeURL})
	})
	mux.HandleFunc("/api/claim", func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodPost) {
			return
		}
		var req ClaimRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			api.WriteError(w, http.StatusBadRequest, &api.Error{
				Code: api.CodeBadRequest, Message: "claim body: " + err.Error()})
			return
		}
		api.WriteJSON(w, http.StatusOK, c.Claim(req))
	})
	mux.HandleFunc("/api/complete", func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodPost) {
			return
		}
		var req CompleteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			api.WriteError(w, http.StatusBadRequest, &api.Error{
				Code: api.CodeBadRequest, Message: "complete body: " + err.Error()})
			return
		}
		c.Complete(req)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/api/", func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, http.StatusNotFound, &api.Error{
			Code: api.CodeNotFound, Message: "no such endpoint: " + r.URL.Path})
	})
	return mux
}
