package perf

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"acic/internal/cpu"
	"acic/internal/distrib"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
	"acic/internal/stats"
)

// DistributedLane is one worker-count point of a DistributedSweep: the
// same cell grid executed through a coordinator with this many in-process
// workers over a cold shared store, wall-clocked end to end (workload
// prepare included — every lane starts cold) and verified cell-for-cell
// identical to the single-process reference.
type DistributedLane struct {
	Workers     int     `json:"workers"`
	WallNs      int64   `json:"wall_ns"`
	Speedup     float64 `json:"speedup"`      // single-process wall / lane wall
	RemoteCells int     `json:"remote_cells"` // cells completed by workers
	Requeued    int     `json:"requeued"`     // batch requeues (lease expiry / transient)
	Identical   bool    `json:"results_identical"`
}

// DistributedSweep is the distributed-execution measurement (DESIGN.md
// §14): the full (app × scheme) grid under one prefetcher, run once
// single-process and once per worker count through the acic-coord
// work-stealing protocol with the shared HTTP store. Every lane is cold —
// fresh scratch store, workloads prepared from nothing — so the speedup
// column is the end-to-end `-exp`-style wall-clock a user would see.
//
// Workers here are in-process (goroutines running distrib.RunWorker
// against a real HTTP listener), so lane parallelism is bounded by
// HostCPUs: the ideal speedup at w workers is min(w·PoolWidth, HostCPUs)
// / min(PoolWidth, HostCPUs), and a single-core host pins every lane to
// ~1x regardless of worker count. The committed trajectory entry carries
// HostCPUs so a reader can tell scheduling overhead from a small host.
type DistributedSweep struct {
	Apps         []string          `json:"apps"`
	Schemes      []string          `json:"schemes"`
	Prefetcher   string            `json:"prefetcher"`
	PoolWidth    int               `json:"pool_width"` // per-process worker pool
	HostCPUs     int               `json:"host_cpus"`  // runtime.NumCPU ceiling on lane parallelism
	Cells        int               `json:"cells"`
	SingleWallNs int64             `json:"single_wall_ns"`
	Lanes        []DistributedLane `json:"lanes"`
}

// DistributedSchemes is the scheme row the distributed sweep shards: the
// three classic baselines plus the paper's policy and the oracle — small
// enough that the sweep's four cold lanes stay minutes, not hours.
func DistributedSchemes() []string {
	return []string{"lru", "srrip", "ship", "acic", "opt"}
}

// DistributedWorkerCounts is the default lane ladder.
func DistributedWorkerCounts() []int { return []int{1, 2, 4} }

// distPoolWidth is the per-process pool width every lane pins: half the
// host's CPUs, so the 2-worker lane can occupy the whole machine while
// the single-process reference runs at exactly half.
func distPoolWidth() int {
	if w := runtime.NumCPU() / 2; w > 1 {
		return w
	}
	return 1
}

// measureDistributedSweep runs the single-process reference lane and one
// distributed lane per worker count, each over the full DistributedSchemes
// × datacenter-apps grid under the FDP platform, cold. Every lane's fault
// handling is folded into fs. On an error the lanes measured so far are
// returned with it.
func measureDistributedSweep(ctx context.Context, n int, fs *experiments.FaultStats) (DistributedSweep, error) {
	schemes := DistributedSchemes()
	width := distPoolWidth()

	single := &experiments.Suite{Config: experiments.Config{N: n, Workers: width}, Context: ctx}
	defer addFaults(fs, single)
	apps := single.AppNames()
	cells := experiments.CrossCells(apps, schemes, "fdp")
	sweep := DistributedSweep{
		Apps:       apps,
		Schemes:    schemes,
		Prefetcher: "fdp",
		PoolWidth:  width,
		HostCPUs:   runtime.NumCPU(),
		Cells:      len(cells),
	}
	start := time.Now()
	if err := single.Require(cells...); err != nil {
		return sweep, err
	}
	singleWall := time.Since(start)
	ref := make([]cpu.Result, len(cells))
	for i, c := range cells {
		r, err := single.Result(c.App, c.Scheme, c.Prefetcher)
		if err != nil {
			return sweep, err
		}
		ref[i] = r
	}
	sweep.SingleWallNs = singleWall.Nanoseconds()

	for _, nw := range DistributedWorkerCounts() {
		if ctx.Err() != nil {
			return sweep, ctx.Err()
		}
		lane, err := runDistributedLane(ctx, n, fs, cells, ref, nw, width)
		if err != nil {
			return sweep, fmt.Errorf("lane workers=%d: %w", nw, err)
		}
		lane.Speedup = float64(singleWall.Nanoseconds()) / float64(lane.WallNs)
		sweep.Lanes = append(sweep.Lanes, lane)
	}
	return sweep, nil
}

// addFaults folds s's engine recovery counts into fs and refreshes the
// process-wide injector counts.
func addFaults(fs *experiments.FaultStats, s *experiments.Suite) {
	st := s.FaultStats()
	st.Retries += fs.Retries
	st.Quarantined += fs.Quarantined
	*fs = st
}

// runDistributedLane executes the grid through a real coordinator — HTTP
// listener, shared store, work-stealing claims — with nw in-process
// workers, the same wiring acic-coord uses minus the process boundary.
func runDistributedLane(ctx context.Context, n int, fs *experiments.FaultStats, cells []experiments.Cell, ref []cpu.Result, nw, width int) (DistributedLane, error) {
	dir, err := os.MkdirTemp("", "acic-dist-sweep-*")
	if err != nil {
		return DistributedLane{}, err
	}
	defer os.RemoveAll(dir)
	storeHandler, err := engine.NewStoreHandler(experiments.StoreDir(dir))
	if err != nil {
		return DistributedLane{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return DistributedLane{}, err
	}
	url := "http://" + ln.Addr().String()

	s := &experiments.Suite{
		Config:  experiments.Config{N: n, Workers: width, CacheDir: dir, ArtifactDir: dir},
		Context: ctx,
	}
	defer addFaults(fs, s)
	coord := distrib.NewCoordinator(s, distrib.CoordinatorOptions{StoreURL: url, Lease: time.Minute})
	defer coord.Close()
	// An interrupt stops the workers claiming, so it also closes the
	// coordinator: queued batches fail back to the suite, whose cancelled
	// context settles them at once, and Require returns instead of
	// waiting on work nobody will claim.
	defer context.AfterFunc(ctx, coord.Close)()
	mux := http.NewServeMux()
	mux.Handle("/api/", coord.Handler())
	mux.Handle("/", storeHandler)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	if err := s.CacheError(); err != nil {
		return DistributedLane{}, err
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A worker error surfaces as the coordinator falling back or
			// the identity check failing; the lane itself keeps going.
			distrib.RunWorker(wctx, distrib.WorkerOptions{
				Coord: url, Workers: width, Name: fmt.Sprintf("lane%d-w%d", nw, i)})
		}(i)
	}

	start := time.Now()
	reqErr := s.Require(cells...)
	wall := time.Since(start)
	coord.Close()
	wg.Wait()
	if reqErr != nil {
		return DistributedLane{}, reqErr
	}

	identical := true
	for i, c := range cells {
		r, err := s.Result(c.App, c.Scheme, c.Prefetcher)
		if err != nil || r != ref[i] {
			identical = false
			break
		}
	}
	st := coord.Stats()
	return DistributedLane{
		Workers:     nw,
		WallNs:      wall.Nanoseconds(),
		RemoteCells: int(st.Completed),
		Requeued:    int(st.Requeued),
		Identical:   identical,
	}, nil
}

// DistributedSweepTable renders the distributed lane measurements (nil
// when none were run). The single-process reference is the 1.00x row.
func (r *Report) DistributedSweepTable() *stats.Table {
	if len(r.DistributedSweeps) == 0 {
		return nil
	}
	t := &stats.Table{Header: []string{
		"lane", "cells", "pool-width", "wall-ms", "speedup", "remote-cells", "requeued", "identical"}}
	for _, s := range r.DistributedSweeps {
		t.AddRow("single-process", s.Cells, s.PoolWidth,
			fmt.Sprintf("%.1f", float64(s.SingleWallNs)/1e6), "1.00x", 0, 0, "yes")
		for _, l := range s.Lanes {
			ident := "yes"
			if !l.Identical {
				ident = "NO"
			}
			t.AddRow(fmt.Sprintf("%d workers", l.Workers), s.Cells, s.PoolWidth,
				fmt.Sprintf("%.1f", float64(l.WallNs)/1e6),
				fmt.Sprintf("%.2fx", l.Speedup),
				l.RemoteCells, l.Requeued, ident)
		}
	}
	return t
}
