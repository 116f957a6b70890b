package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"acic/internal/experiments"
	"acic/internal/experiments/engine"
	"acic/internal/stats"
	"acic/internal/workload"
)

// figureDigests holds, per trace length, the SHA-256 of acic-bench
// -exp all's standard output with the " (x.xs)" timing suffixes of the
// "===" header lines stripped (sed 's/ ([0-9.]*s)$//'), recorded with
// the default options and -workers 2. Rendered output is byte-identical
// across worker counts, so any mismatch is a change in the figures.
var figureDigests = map[int]string{
	400_000: "ee648b56ad7e0856cba49cd4ade678fb28c04f95502b91cba71d44287b5169a2",
	20_000:  "a1f6eda052b456837c134bced1a94c7a6945c4e039995ea038e7a739eb0d91df", // the smoke test's
}

// phaseFigures is figures-warm's timed phase: one fresh Suite with no
// result cache over the warm store renders every registry entry, as
// acic-bench -exp all does. The figure digest is checked by the parent.
func phaseFigures(p phaseArgs) (*phaseResult, error) {
	tr := newTracer(p.trace, p.run)
	pr := &phaseResult{}
	root, endRoot := tr.begin("figures-warm.render_all", 0)
	s := experiments.NewSuite(p.n)
	s.Workers = p.workers
	s.ArtifactDir = p.store
	if err := s.CacheError(); err != nil {
		return nil, err
	}
	var occ *occupancySampler
	if p.trace {
		occ = sampleOccupancy(s, 10*time.Millisecond)
	}
	h := sha256.New()
	for _, e := range experiments.Registry() {
		_, end := tr.begin("experiments."+e.Slug+"_s", root)
		out, err := e.Run(s)
		end()
		pr.op(err)
		if err == nil {
			fmt.Fprintf(h, "=== %s: %s\n%s\n", e.Slug, e.Desc, out)
		}
	}
	pr.WallNS = endRoot().Nanoseconds()
	pr.PeakKB = peakRSSKB(0)
	pr.Digest = hex.EncodeToString(h.Sum(nil))
	if p.trace {
		pr.set("engine.pool_busy_frac", "ratio", occ.stop())
		figureLayerMetrics(s, pr)
		pr.Spans = tr.recorded()
		var covered int64
		for _, sp := range pr.Spans {
			if sp.Parent == root {
				pr.set(sp.Name, "s", seconds(sp.End-sp.Start))
				covered += sp.End - sp.Start
			}
		}
		pr.set("experiments.span_coverage", "ratio", float64(covered)/float64(pr.WallNS))
	}
	return pr, nil
}

// figureLayerMetrics reports the engine's counters and the modelled
// results from the suite that rendered the registry.
func figureLayerMetrics(s *experiments.Suite, pr *phaseResult) {
	computed, _, _ := s.Stats()
	gs := s.GangStats()
	pr.set("engine.cells_computed", "count", float64(computed))
	pr.set("engine.gangs", "count", float64(gs.Gangs))
	perGang := 0.0
	if gs.Gangs > 0 {
		perGang = float64(gs.Cells) / float64(gs.Gangs)
	}
	pr.set("engine.cells_per_gang", "count", perGang)
	var hits, attempts int64
	for _, st := range s.PrepareStats() {
		hits += st.FromStore
		attempts += st.FromStore + st.Computed
	}
	pr.set("experiments.store_hit_ratio", "ratio", float64(hits)/float64(max(attempts, 1)))

	// Modelled results: properties of the simulated machine, not of the
	// host — a host-speed change must leave them exactly as they are.
	apps := s.AppNames()
	var speedups, errPct []float64
	mpki := map[string][]float64{}
	for _, app := range apps {
		if sp, err := s.SpeedupOver(app, experiments.Baseline, "acic", "fdp"); err == nil {
			speedups = append(speedups, sp)
		}
		for _, sch := range []string{"lru", "acic", "opt"} {
			if r, err := s.Result(app, sch, "fdp"); err == nil {
				mpki[sch] = append(mpki[sch], r.MPKI())
			}
		}
		if r, err := s.Result(app, experiments.Baseline, "fdp"); err == nil {
			if prof, ok := workload.ByName(app); ok && prof.PaperMPKI > 0 {
				errPct = append(errPct, 100*math.Abs(r.MPKI()-prof.PaperMPKI)/prof.PaperMPKI)
			}
		}
	}
	pr.set("sim.acic_speedup_geomean", "ratio", stats.Geomean(speedups))
	for sch, vs := range mpki {
		pr.set("sim.mpki."+sch, "MPKI", stats.Mean(vs))
	}
	pr.set("sim.table3_mpki_err_pct", "%", stats.Mean(errPct))
}

// occupancySampler averages the suite's pool occupancy over time.
type occupancySampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	sum  float64
	n    int
}

func sampleOccupancy(s *experiments.Suite, every time.Duration) *occupancySampler {
	o := &occupancySampler{done: make(chan struct{})}
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-o.done:
				return
			case <-t.C:
				running, idle, _ := s.Occupancy()
				if running+idle > 0 {
					o.sum += float64(running) / float64(running+idle)
					o.n++
				}
			}
		}
	}()
	return o
}

// stop ends sampling and returns the mean busy fraction.
func (o *occupancySampler) stop() float64 {
	close(o.done)
	o.wg.Wait()
	if o.n == 0 {
		return 0
	}
	return o.sum / float64(o.n)
}

// fillStore is a cold Pipeline.Warm of the 15 paper profiles into a fresh
// store — figures-warm's set-up. It returns the set-up's duration.
func (b *bench) fillStore(dir string, n int) (time.Duration, error) {
	apps := paperApps()
	start := time.Now()
	pl, err := experiments.NewPipeline(experiments.PipelineConfig{N: n, Dir: dir, Pool: engine.NewPool(b.cfg.workers)})
	if err == nil {
		err = pl.Warm(apps...)
	}
	d := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("fill store: %w", err)
	}
	if got, want := pl.Regenerated(), int64(4*len(apps)); got != want {
		return 0, fmt.Errorf("fill store: %d stage artifacts regenerated, want %d (store not cold)", got, want)
	}
	debug.FreeOSMemory() // hand the dead pipeline's memory back before the phase process starts
	return d, nil
}

// checkFigures accounts one render pass: its digest must match the one
// recorded for this trace length.
func (b *bench) checkFigures(pr *phaseResult) {
	b.res.merge(&pr.result)
	want, ok := figureDigests[b.cfg.n]
	b.res.Attempted++
	switch {
	case !ok:
		b.res.fail("figures-warm: no recorded figure digest for n=%d", b.cfg.n)
	case pr.Digest != want:
		b.res.fail("figures-warm: figure digest %s, want %s", pr.Digest, want)
	}
}

// figuresWarm measures the figures-warm workload: set-up fills a fresh
// store cold, then a child process renders the whole registry over it.
func (b *bench) figuresWarm() error {
	var e endToEnd
	start := time.Now()
	for rep := 0; b.reps(rep, start); rep++ {
		store := b.scratch("store")
		d, err := b.fillStore(store, b.cfg.n)
		if err != nil {
			return err
		}
		pr, err := b.runChild(phaseArgs{name: "figures", store: store, n: b.cfg.n, seed: b.cfg.seed, workers: b.cfg.workers})
		if err != nil {
			return err
		}
		b.checkFigures(pr)
		e.add(d+time.Duration(pr.SpawnNS), pr.WallNS, pr.PeakKB, pr.MaxRSSKB)
		os.RemoveAll(store)
	}
	e.report(b.res)
	return nil
}
