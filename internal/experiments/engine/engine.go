// Package engine is the concurrency core of the experiments layer: a
// bounded worker pool sized to the host, a generic memoizing group with
// per-key singleflight (so hundreds of figure renderers can demand the
// same simulation cell and pay for it once), and an optional persistent
// cache layered under the in-memory store so repeated tool runs are
// incremental.
//
// The intended shape is plan → execute → render: callers first enumerate
// the keys an artifact needs, batch them through Group.Require (parallel,
// deduplicated), and then render from the completed store with Group.Get,
// which at that point returns instantly. Get is also safe to call from
// inside a pool task: an unclaimed key is computed inline on the caller's
// goroutine rather than waiting for a pool slot, so dependent groups
// (results → workloads) cannot deadlock the pool.
package engine

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"acic/internal/faults"
)

// Workers returns the default worker-pool width: the ACIC_WORKERS
// environment variable if set to a positive integer, else GOMAXPROCS.
func Workers() int {
	if s := os.Getenv("ACIC_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Pool bounds the number of concurrently running tasks. The zero value is
// not usable; construct with NewPool.
type Pool struct {
	slots   chan struct{}
	running atomic.Int64
	queued  atomic.Int64
}

// NewPool creates a pool running at most workers tasks at once
// (workers <= 0 selects Workers()).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = Workers()
	}
	return &Pool{slots: make(chan struct{}, workers)}
}

// Width returns the pool's concurrency bound.
func (p *Pool) Width() int { return cap(p.slots) }

// acquire blocks until a slot frees and counts the task as running;
// release undoes both. Every slot user goes through this pair so the
// occupancy counters stay exact.
func (p *Pool) acquire() {
	p.queued.Add(1)
	p.slots <- struct{}{}
	p.queued.Add(-1)
	p.running.Add(1)
}

func (p *Pool) release() {
	p.running.Add(-1)
	<-p.slots
}

// Running returns the number of tasks currently occupying slots. It is a
// point-in-time snapshot — scheduling advice, not a synchronization
// primitive.
func (p *Pool) Running() int { return int(p.running.Load()) }

// Idle returns how many slots are currently free (Width − Running, floored
// at zero). Batch packers use it to decide how many tasks a submission
// should split into: with idle workers available, narrower-but-more tasks
// fill the pool; with the pool saturated, wider tasks amortize better.
func (p *Pool) Idle() int {
	idle := p.Width() - p.Running()
	if idle < 0 {
		return 0
	}
	return idle
}

// Queued returns how many tasks are currently blocked waiting for a slot.
// Together with Running and Idle this completes the occupancy snapshot:
// the distributed worker's claim sizing uses Idle − Queued headroom to
// decide how many batches to steal, so a worker with a backlog stops
// asking for more work instead of hoarding batches other workers could
// run.
func (p *Pool) Queued() int { return int(p.queued.Load()) }

// Each runs fn(0..n-1) with bounded parallelism and waits for all calls,
// returning the lowest-index error. A panicking call is recovered into a
// *CellError for its index instead of killing the process. Each must not
// be called from inside a pool task (a task waiting for its own pool's
// slots can deadlock); nested work should use Group.Get, which computes
// inline.
func (p *Pool) Each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		p.acquire()
		go func(i int) {
			defer wg.Done()
			defer p.release()
			_, errs[i] = Guard(fmt.Sprintf("task %d", i), func() (struct{}, error) {
				return struct{}{}, fn(i)
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cell is the singleflight slot for one key. A cell is *claimed* when it
// enters the map and *started* when some goroutine wins the CAS to run
// it; the two are distinct so that a Get arriving between Require's claim
// and its (possibly blocked) pool-slot acquisition can help-run the cell
// instead of waiting on a computation nobody has started — waiting there
// deadlocks when the waiters hold the very slots the claimer needs.
type cell[V any] struct {
	done    chan struct{} // closed when val/err are final
	started atomic.Bool   // won by whoever runs the compute
	val     V
	err     error
}

// Group memoizes compute(key) results with per-key singleflight: however
// many goroutines demand a key, compute runs once and everyone shares the
// outcome (including errors). An optional Cache is consulted before
// compute and populated after it, making results persistent across
// processes.
type Group[K comparable, V any] struct {
	pool    *Pool
	compute func(K) (V, error)

	// Cache, if non-nil, is checked before compute and written after a
	// successful compute. Set it before first use.
	Cache Cache[K, V]
	// OnDone, if non-nil, is called once per key after it completes
	// (fromCache reports a persistent-cache hit). Called from worker
	// goroutines; it must be safe for concurrent use.
	OnDone func(key K, fromCache bool, err error)
	// Name labels the group's keys at the "compute" fault-injection site
	// (key "Name:k"), so groups sharing key values draw independently.
	// Set before first use.
	Name string
	// Retry bounds re-attempts of transient compute failures (injected
	// faults, MarkTransient-wrapped errors). The zero value runs compute
	// once — still panic-guarded, so a panicking compute fails its key
	// with a *CellError instead of killing the process. Set before first
	// use.
	Retry RetryPolicy

	mu    sync.Mutex
	cells map[K]*cell[V]

	computed  atomic.Int64 // keys produced by compute
	cacheHits atomic.Int64 // keys served from Cache
	retries   atomic.Int64 // extra compute attempts spent on transient failures
}

// NewGroup creates a memoizing group executing batch work on pool.
func NewGroup[K comparable, V any](pool *Pool, compute func(K) (V, error)) *Group[K, V] {
	return &Group[K, V]{pool: pool, compute: compute, cells: make(map[K]*cell[V])}
}

// claim returns the cell for k, creating it if absent; claimed reports
// whether this call created it (Require uses that to submit each new
// cell to the pool exactly once; who actually runs it is decided by the
// cell's started CAS).
func (g *Group[K, V]) claim(k K) (c *cell[V], claimed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.cells[k]; ok {
		return c, false
	}
	c = &cell[V]{done: make(chan struct{})}
	g.cells[k] = c
	return c, true
}

func (g *Group[K, V]) run(k K, c *cell[V]) {
	defer close(c.done)
	if g.Cache != nil {
		if v, ok := g.Cache.Load(k); ok {
			c.val = v
			g.cacheHits.Add(1)
			if g.OnDone != nil {
				g.OnDone(k, true, nil)
			}
			return
		}
	}
	var retried int
	key := fmt.Sprint(k)
	c.val, c.err, retried = Retry(g.Retry, key, func() (V, error) {
		faults.PanicPoint("compute", g.Name+":"+key)
		return g.compute(k)
	})
	if retried > 0 {
		g.retries.Add(int64(retried))
	}
	g.computed.Add(1)
	if c.err == nil && g.Cache != nil {
		g.Cache.Store(k, c.val)
	}
	if g.OnDone != nil {
		g.OnDone(k, false, c.err)
	}
}

// Get returns the memoized value for k. If k's computation has not
// started yet — unclaimed, or claimed by a Require that is still queued
// for a pool slot — it is computed inline on the caller's goroutine
// (never waiting for a slot), otherwise Get blocks until the in-flight
// computation finishes. Safe to call from inside pool tasks.
func (g *Group[K, V]) Get(k K) (V, error) {
	c, _ := g.claim(k)
	if c.started.CompareAndSwap(false, true) {
		g.run(k, c)
	} else {
		<-c.done
	}
	return c.val, c.err
}

// Require computes every key on the worker pool — deduplicating repeats
// within the batch and against completed or in-flight work — and waits
// for all of them. Every key is attempted even if some fail; the error of
// the first failing key in argument order is returned so error reporting
// is deterministic. Like Pool.Each, Require must not be called from
// inside a pool task (its submitter blocks on a slot the caller may
// itself hold); nested work should use Get, which computes inline.
func (g *Group[K, V]) Require(keys ...K) error {
	type pending struct {
		k K
		c *cell[V]
	}
	seen := make(map[K]bool, len(keys))
	batch := make([]pending, 0, len(keys))
	var wg sync.WaitGroup
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		c, claimed := g.claim(k)
		batch = append(batch, pending{k, c})
		if !claimed {
			continue
		}
		wg.Add(1)
		g.pool.acquire() // backpressure on the submitter
		go func(k K, c *cell[V]) {
			defer wg.Done()
			defer g.pool.release()
			// A Get may have help-run the cell while this task was
			// queued; losing the CAS means there is nothing left to do.
			if c.started.CompareAndSwap(false, true) {
				g.run(k, c)
			}
		}(k, c)
	}
	wg.Wait()
	for _, p := range batch {
		<-p.c.done // may have been claimed by a concurrent caller
		if p.c.err != nil {
			return p.c.err
		}
	}
	return nil
}

// TryClaim claims k for external computation: true means the caller now
// owns the key and must complete it with exactly one TryCache (that hits)
// or Fulfill call; false means the key is already computed, in flight, or
// owned elsewhere. Batch executors (the distributed coordinator) use this
// to take a set of keys out of the per-key compute path and produce them
// elsewhere — a Get or Require arriving for a claimed key simply waits
// for the owner.
func (g *Group[K, V]) TryClaim(k K) bool {
	c, _ := g.claim(k)
	return c.started.CompareAndSwap(false, true)
}

// TryCache consults the persistent cache for a key claimed via TryClaim.
// On a hit the key is completed from the cached value (counting a cache
// hit and firing OnDone like the internal path) and TryCache returns true:
// the caller must not Fulfill it. On a miss the caller still owns the key.
func (g *Group[K, V]) TryCache(k K) bool {
	if g.Cache == nil {
		return false
	}
	v, ok := g.Cache.Load(k)
	if !ok {
		return false
	}
	c := g.cellOf(k)
	c.val = v
	g.cacheHits.Add(1)
	if g.OnDone != nil {
		g.OnDone(k, true, nil)
	}
	close(c.done)
	return true
}

// Fulfill completes a key claimed via TryClaim with an externally computed
// value, storing successes to the persistent cache and waking every
// waiter. Calling it for a key the caller does not own corrupts the group.
func (g *Group[K, V]) Fulfill(k K, v V, err error) {
	c := g.cellOf(k)
	c.val, c.err = v, err
	g.computed.Add(1)
	if err == nil && g.Cache != nil {
		g.Cache.Store(k, v)
	}
	if g.OnDone != nil {
		g.OnDone(k, false, err)
	}
	close(c.done)
}

// Compute completes a key claimed via TryClaim through the group's own
// path — cache lookup, panic-guarded compute with retries, cache store,
// OnDone — for a batch executor that could not produce the key itself.
func (g *Group[K, V]) Compute(k K) { g.run(k, g.cellOf(k)) }

// Forget drops a COMPLETED key from the memo so the next demand
// recomputes it, returning whether anything was dropped. A key still in
// flight (claimed but its done channel not yet closed) is left alone —
// forgetting it would strand waiters on a cell no future Fulfill can
// reach. The distributed worker uses Forget after a transient cell
// failure: the coordinator will requeue the cell (possibly to this very
// worker), and the retry must run the compute again rather than replay
// the memoized error.
func (g *Group[K, V]) Forget(k K) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.cells[k]
	if !ok {
		return false
	}
	select {
	case <-c.done:
		delete(g.cells, k)
		return true
	default:
		return false
	}
}

// ForgetTransient drops a completed key only when its memoized outcome
// is a transient error, returning whether anything was dropped.
// Successful results and deterministic errors stand — a long-lived
// process (acic-serve, a distributed worker between requeues) uses this
// to heal stage memos poisoned by injected faults or store outages
// without discarding work that is still good.
func (g *Group[K, V]) ForgetTransient(k K) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.cells[k]
	if !ok {
		return false
	}
	select {
	case <-c.done:
		if c.err == nil || !IsTransient(c.err) {
			return false
		}
		delete(g.cells, k)
		return true
	default:
		return false
	}
}

// ForgetAllTransient sweeps every completed key whose memoized outcome
// is a transient error, returning how many were dropped. Used when the
// caller cannot name the poisoned keys — e.g. a figure render failed
// transiently and any of its cells may hold the memoized fault.
func (g *Group[K, V]) ForgetAllTransient() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for k, c := range g.cells {
		select {
		case <-c.done:
			if c.err != nil && IsTransient(c.err) {
				delete(g.cells, k)
				n++
			}
		default:
		}
	}
	return n
}

func (g *Group[K, V]) cellOf(k K) *cell[V] {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.cells[k]
	if !ok {
		panic("engine: Fulfill/TryCache of an unclaimed key")
	}
	return c
}

// Size returns the number of keys ever demanded (completed or in flight).
func (g *Group[K, V]) Size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.cells)
}

// Computed returns how many keys were produced by the compute function.
func (g *Group[K, V]) Computed() int64 { return g.computed.Load() }

// CacheHits returns how many keys were served from the persistent cache.
func (g *Group[K, V]) CacheHits() int64 { return g.cacheHits.Load() }

// Retries returns how many extra compute attempts were spent recovering
// transient failures across all keys.
func (g *Group[K, V]) Retries() int64 { return g.retries.Load() }
