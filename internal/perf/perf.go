// Package perf measures raw simulator throughput — nanoseconds per block
// access and accesses per second — for a grid of (scheme × prefetcher)
// cells over one workload, plus the prepare-phase wall-clock over the
// staged workload artifact pipeline and optional sampled, prepare and
// distributed sweeps. The measurements
// serialize to JSON (the files under bench/trajectory/ are the tracked
// trajectory, one per hot-path PR — see its index.json) so that future
// PRs can regress hot-path changes against a committed baseline instead
// of folklore; Compare diffs two such files cell by cell.
//
// Throughput here is *simulator* speed, not simulated-machine speed: the
// denominator is the number of instruction-block accesses the front end
// issues over the whole run (warmup included), which is identical across
// schemes for a given workload and therefore isolates the per-access cost
// of the i-cache subsystem under test.
package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"acic/internal/cpu"
	"acic/internal/experiments"
	"acic/internal/stats"
)

// Cell is one measured (scheme × prefetcher) throughput point.
type Cell struct {
	App            string  `json:"app"`
	Scheme         string  `json:"scheme"`
	Prefetcher     string  `json:"prefetcher"`
	Accesses       int64   `json:"accesses"`         // block accesses per run (warmup included)
	Instructions   int64   `json:"instructions"`     // trace length
	Runs           int     `json:"runs"`             // repetitions measured; best run reported
	NsPerAccess    float64 `json:"ns_per_access"`    // best-of-runs wall time / accesses
	AccessesPerSec float64 `json:"accesses_per_sec"` // 1e9 / NsPerAccess
}

// SampledSweep is one set-sampled fast-mode wall-clock measurement: a
// full scheme row under one prefetcher, timed end to end through the
// reference path and through the sampled lane (Run under the
// experiments.SampleConfigFor sampling config), with the per-cell
// cycle-count error of the sampled run recorded alongside — the
// wall-clock claim and the accuracy claim travel together in the
// trajectory file.
type SampledSweep struct {
	App               string   `json:"app"`
	Prefetcher        string   `json:"prefetcher"`
	Schemes           []string `json:"schemes"`
	SampleSets        int      `json:"sample_sets"`
	Runs              int      `json:"runs"` // repetitions per path; best kept
	FullWallNs        int64    `json:"full_wall_ns"`
	SampledWallNs     int64    `json:"sampled_wall_ns"`
	Speedup           float64  `json:"sampled_speedup"`
	MeanCyclesErrPct  float64  `json:"mean_cycles_err_pct"`
	WorstCyclesErrPct float64  `json:"worst_cycles_err_pct"`
}

// Report is the serialized benchmark trajectory for one tree state.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	N         int    `json:"trace_instructions"`
	// PrepareWallNs is the wall-clock of the workload prepare phase before
	// the first simulation. With a warm artifact store it collapses to the
	// time needed to load and reassemble the artifacts — the "prepare ~0"
	// the pipeline targets; PrepareStages records whether it did.
	PrepareWallNs int64 `json:"prepare_wall_ns"`
	// PreparePeakBytes is the high-water mark of the live heap
	// (runtime.MemStats HeapAlloc, sampled every millisecond) over the
	// prepare phase, relative to the GC-settled baseline before it.
	PreparePeakBytes int64                    `json:"prepare_peak_bytes"`
	PrepareStages    []experiments.StageStats `json:"prepare_stages,omitempty"`
	Cells            []Cell                   `json:"cells"`
	SampledSweeps    []SampledSweep           `json:"sampled_sweeps,omitempty"`
	// DistributedSweeps records the coordinator/worker lane measurements
	// (distributed.go) when Config.DistributedSweeps asked for them.
	DistributedSweeps []DistributedSweep `json:"distributed_sweeps,omitempty"`
	// Faults records the run's fault-injection and recovery activity
	// (always present; all-zero without -fault-spec). Injected faults on
	// the measurement path would distort timings, so bench runs are
	// normally fault-free — the block exists so CI can assert that and so
	// faulted diagnostics runs are self-describing.
	Faults *experiments.FaultStats `json:"faults,omitempty"`
	// Interrupted marks a report cut short by SIGINT/SIGTERM (Config.
	// Context): the measurements present are valid, the grid is partial.
	Interrupted bool `json:"interrupted,omitempty"`
}

// Config selects the measurement grid.
type Config struct {
	// Context, when non-nil, lets the caller cancel the measurement run
	// (SIGINT/SIGTERM in acic-bench). Cancellation is honored between
	// cells and between sweep families — the measurement in flight
	// finishes — and yields a partial Report with Interrupted set, not an
	// error; the caller decides the exit code.
	Context     context.Context
	App         string   // workload name (default "media-streaming")
	N           int      // trace length (0 = experiments.DefaultTraceLen)
	Schemes     []string // scheme names (default DefaultSchemes)
	Prefetchers []string // prefetcher platforms (default {"none", "fdp"})
	Repeats     int      // timed repetitions per cell, best kept (default 3)
	SampleSets  int      // also measure set-sampled sweeps at this -sample-sets (0 = skip)
	ArtifactDir string   // persistent workload artifact store ("" = prepare in memory)
	// DistributedSweeps adds the distributed-execution measurements: the
	// full DistributedSchemes × datacenter-apps grid under FDP, run
	// single-process and through a coordinator at each worker count in
	// DistributedWorkerCounts, every lane over its own cold store, with
	// per-cell results verified identical (DESIGN.md §14).
	DistributedSweeps bool
}

// DefaultSchemes is the tracked scheme set: the baseline, the learned and
// oracle policies whose inner loops this repo optimizes, and the bypass
// family with per-block state.
func DefaultSchemes() []string {
	return []string{
		"lru", "srrip", "ship", "harmony", "ghrp",
		"eaf", "ripple-lite", "acic", "opt", "opt-bypass",
	}
}

func (c *Config) defaults() {
	if c.App == "" {
		c.App = "media-streaming"
	}
	if c.N <= 0 {
		c.N = experiments.DefaultTraceLen()
	}
	if len(c.Schemes) == 0 {
		c.Schemes = DefaultSchemes()
	}
	if len(c.Prefetchers) == 0 {
		c.Prefetchers = []string{"none", "fdp"}
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
}

// Measure runs the configured grid and returns the throughput report.
// Workload preparation (trace generation, branch annotation, oracle
// construction) happens once, is timed as the report's prepare phase, and
// is excluded from the per-cell timings; subsystem construction is re-done
// per run but timed separately and excluded too, so the numbers isolate
// the simulation loop. With a Config.ArtifactDir the prepare phase runs
// over the persistent store — a warm store drops it to artifact loading.
func Measure(cfg Config) (*Report, error) {
	cfg.defaults()
	s := experiments.NewSuite(cfg.N)
	s.ArtifactDir = cfg.ArtifactDir
	s.Context = cfg.Context
	// An unusable artifact store would silently measure a cold prepare
	// phase; fail like the -exp path does instead of benchmarking a lie.
	if err := s.CacheError(); err != nil {
		return nil, err
	}
	var w *experiments.Workload
	prepStart := time.Now()
	peak, err := heapWatermark(func() error {
		var err error
		w, err = s.Workload(cfg.App)
		return err
	})
	if err != nil {
		return nil, err
	}
	prepare := time.Since(prepStart)
	rep := &Report{
		GoVersion:        runtime.Version(),
		GOOS:             runtime.GOOS,
		GOARCH:           runtime.GOARCH,
		N:                cfg.N,
		PrepareWallNs:    prepare.Nanoseconds(),
		PreparePeakBytes: peak,
		PrepareStages:    s.PrepareStats(),
	}
	// canceled gates each measurement: the first true marks the report
	// interrupted and every later call short-circuits, so the partial
	// report flushes without starting further multi-second measurements.
	canceled := func() bool {
		if rep.Interrupted {
			return true
		}
		if cfg.Context != nil && cfg.Context.Err() != nil {
			rep.Interrupted = true
		}
		return rep.Interrupted
	}
	finish := func() (*Report, error) {
		fs := s.FaultStats()
		rep.Faults = &fs
		return rep, nil
	}
	for _, pf := range cfg.Prefetchers {
		for _, scheme := range cfg.Schemes {
			if canceled() {
				return finish()
			}
			cell, err := measureCell(w, cfg.App, scheme, pf, cfg.Repeats)
			if err != nil {
				return nil, fmt.Errorf("perf: %s/%s: %w", scheme, pf, err)
			}
			rep.Cells = append(rep.Cells, cell)
		}
	}
	if cfg.SampleSets > 0 {
		for _, pf := range cfg.Prefetchers {
			if canceled() {
				return finish()
			}
			sweep, err := measureSampledSweep(w, cfg, pf)
			if err != nil {
				return nil, fmt.Errorf("perf: sampled sweep %s: %w", pf, err)
			}
			rep.SampledSweeps = append(rep.SampledSweeps, sweep)
		}
	}
	if cfg.DistributedSweeps {
		if canceled() {
			return finish()
		}
		sweep, err := measureDistributedSweep(cfg)
		if err != nil {
			return nil, fmt.Errorf("perf: distributed sweep: %w", err)
		}
		rep.DistributedSweeps = append(rep.DistributedSweeps, sweep)
	}
	return finish()
}

// heapWatermark runs fn while sampling the live heap every millisecond and
// returns the high-water HeapAlloc growth over the GC-settled baseline
// taken just before fn. A final read after fn catches work that outpaces
// the ticker. Sampling is approximate by nature — short allocation spikes
// between ticks can be missed — but the prepare phases it measures run for
// hundreds of ticks, and the trajectory gate compares like against like.
//
// GC is tightened for the duration (GOGC 20) so the watermark tracks live
// bytes rather than collector slack: under the default GOGC=100 deadband
// HeapAlloc is allowed to reach ~2x the live set before a collection, a
// slack proportional to allocation rate rather than footprint, which would
// flatter whichever lane allocates less and keeps more resident. Both
// prepare lanes are measured under the same setting.
func heapWatermark(fn func() error) (int64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base, high := ms.HeapAlloc, ms.HeapAlloc
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > high {
					high = ms.HeapAlloc
				}
			}
		}
	}()
	err := fn()
	close(stop)
	<-done
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > high {
		high = ms.HeapAlloc
	}
	if high < base {
		return 0, err
	}
	return int64(high - base), err
}

// measureSampledSweep times one full scheme row through the reference
// path and through the set-sampled fast lane (best of Repeats each) and
// records the sampled run's per-cell cycle errors against the reference
// results.
func measureSampledSweep(w *experiments.Workload, cfg Config, pf string) (SampledSweep, error) {
	opts := experiments.DefaultOptions()
	opts.Prefetcher = pf
	sample, err := experiments.SampleConfigFor(cfg.SampleSets, 0, w.Profile.Name)
	if err != nil {
		return SampledSweep{}, err
	}
	sampOpts := opts
	sampOpts.Sample = sample

	var fullRes []cpu.Result
	var fullBest time.Duration
	for r := 0; r < cfg.Repeats; r++ {
		res := make([]cpu.Result, len(cfg.Schemes))
		start := time.Now()
		for i, scheme := range cfg.Schemes {
			if res[i], err = experiments.Run(w, scheme, opts); err != nil {
				return SampledSweep{}, err
			}
		}
		if elapsed := time.Since(start); fullBest == 0 || elapsed < fullBest {
			fullBest = elapsed
			fullRes = res
		}
	}

	var sampRes []cpu.Result
	var sampBest time.Duration
	for r := 0; r < cfg.Repeats; r++ {
		res := make([]cpu.Result, len(cfg.Schemes))
		start := time.Now()
		for i, scheme := range cfg.Schemes {
			if res[i], err = experiments.Run(w, scheme, sampOpts); err != nil {
				return SampledSweep{}, err
			}
		}
		if elapsed := time.Since(start); sampBest == 0 || elapsed < sampBest {
			sampBest = elapsed
			sampRes = res
		}
	}

	var sum, worst float64
	for i := range fullRes {
		err := 100 * math.Abs(float64(sampRes[i].Cycles)/float64(fullRes[i].Cycles)-1)
		sum += err
		if err > worst {
			worst = err
		}
	}
	return SampledSweep{
		App:               cfg.App,
		Prefetcher:        pf,
		Schemes:           cfg.Schemes,
		SampleSets:        cfg.SampleSets,
		Runs:              cfg.Repeats,
		FullWallNs:        fullBest.Nanoseconds(),
		SampledWallNs:     sampBest.Nanoseconds(),
		Speedup:           float64(fullBest.Nanoseconds()) / float64(sampBest.Nanoseconds()),
		MeanCyclesErrPct:  sum / float64(len(fullRes)),
		WorstCyclesErrPct: worst,
	}, nil
}

func measureCell(w *experiments.Workload, app, scheme, pf string, repeats int) (Cell, error) {
	opts := experiments.DefaultOptions()
	opts.Prefetcher = pf
	var best time.Duration
	var accesses int64
	for r := 0; r < repeats; r++ {
		sub, err := experiments.NewScheme(scheme, w)
		if err != nil {
			return Cell{}, err
		}
		start := time.Now()
		res, err := experiments.RunSubsystem(w, sub, opts)
		elapsed := time.Since(start)
		if err != nil {
			return Cell{}, err
		}
		// Total accesses processed: the subsystem's demand-access counter
		// covers the whole run including warmup and is scheme-independent
		// for a fixed workload.
		accesses = int64(res.ICache.Accesses)
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	if accesses == 0 {
		return Cell{}, fmt.Errorf("no accesses simulated")
	}
	ns := float64(best.Nanoseconds()) / float64(accesses)
	return Cell{
		App:            app,
		Scheme:         scheme,
		Prefetcher:     pf,
		Accesses:       accesses,
		Instructions:   int64(w.Prog.Len()),
		Runs:           repeats,
		NsPerAccess:    ns,
		AccessesPerSec: 1e9 / ns,
	}, nil
}

// WriteJSON serializes the report to path with stable formatting.
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadJSON loads a previously written report (regression comparisons).
func ReadJSON(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Table renders the report for terminal output.
func (r *Report) Table() *stats.Table {
	t := &stats.Table{Header: []string{"scheme", "prefetcher", "ns/access", "accesses/sec"}}
	for _, c := range r.Cells {
		t.AddRow(c.Scheme, c.Prefetcher, fmt.Sprintf("%.1f", c.NsPerAccess),
			fmt.Sprintf("%.3fM", c.AccessesPerSec/1e6))
	}
	return t
}

// PrepareSummary renders the prepare-phase measurement as one line: the
// wall-clock and peak live-heap growth, plus how many stage artifacts were
// regenerated vs. loaded from the store.
func (r *Report) PrepareSummary() string {
	var computed, loaded int64
	for _, st := range r.PrepareStages {
		computed += st.Computed
		loaded += st.FromStore
	}
	return fmt.Sprintf("prepare phase: %.1fms, peak heap +%.1fMB (%d stage artifacts regenerated, %d from store)",
		float64(r.PrepareWallNs)/1e6, float64(r.PreparePeakBytes)/(1<<20), computed, loaded)
}

// SampledSweepTable renders the set-sampled fast-mode sweep measurements
// (nil when none were run).
func (r *Report) SampledSweepTable() *stats.Table {
	if len(r.SampledSweeps) == 0 {
		return nil
	}
	t := &stats.Table{Header: []string{
		"prefetcher", "schemes", "sample-sets", "full-ms", "sampled-ms", "speedup", "cycles-err mean/worst"}}
	for _, s := range r.SampledSweeps {
		t.AddRow(s.Prefetcher, len(s.Schemes), s.SampleSets,
			fmt.Sprintf("%.1f", float64(s.FullWallNs)/1e6),
			fmt.Sprintf("%.1f", float64(s.SampledWallNs)/1e6),
			fmt.Sprintf("%.2fx", s.Speedup),
			fmt.Sprintf("%.2f%% / %.2f%%", s.MeanCyclesErrPct, s.WorstCyclesErrPct))
	}
	return t
}

// Cell returns the measurement for (scheme, prefetcher), if present.
func (r *Report) Cell(scheme, prefetcher string) (Cell, bool) {
	for _, c := range r.Cells {
		if c.Scheme == scheme && c.Prefetcher == prefetcher {
			return c, true
		}
	}
	return Cell{}, false
}
