package experiments

import (
	"fmt"
	"math"

	"acic/internal/analysis"
	"acic/internal/core"
	"acic/internal/cpu"
	"acic/internal/icache"
	"acic/internal/policy"
	"acic/internal/stats"
)

// The renderers in this file all follow the engine's plan → execute →
// render shape: first declare the workloads and simulation cells the
// artifact needs (PrepareAll / Require, executed in parallel with
// deduplication), then render from completed results in paper order.
// Instrumented sweeps that attach callbacks to a subsystem cannot share
// plain cells; they fan out over the same worker pool via s.each, writing
// into index-addressed slots so rendering stays deterministic.

// Fig1a returns the per-app reuse-distance distributions at instruction
// granularity (buckets 0, 1-16, 16-512, 512-1024, 1024-10000, >10000).
func (s *Suite) Fig1a() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.PrepareAll(apps...); err != nil {
		return nil, err
	}
	rows := make([][6]float64, len(apps))
	err := s.each(len(apps), func(i int) error {
		copy(rows[i][:], s.instReuse(s.wl(apps[i]), apps[i]).Dist)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"app", "0", "1-16", "16-512", "512-1024", "1024-10000", ">10000"}}
	for i, app := range apps {
		fr := rows[i]
		t.AddRow(app, stats.Percent(fr[0]), stats.Percent(fr[1]), stats.Percent(fr[2]),
			stats.Percent(fr[3]), stats.Percent(fr[4]), stats.Percent(fr[5]))
	}
	return t, nil
}

// instReuse is app's instruction-granularity reuse profile, computed over
// the collapsed block sequence and its run lengths (under the lane's set
// sampling, if any).
func (s *Suite) instReuse(w *Workload, app string) analysis.InstReuse {
	return analysis.InstReuseProfile(w.Blocks, w.Prog.RunLengths(), analysis.Fig1aEdges, s.sampleFilter(app))
}

// Fig1b returns the Markov chain of reuse-distance buckets for the named
// app (media-streaming in the paper).
func (s *Suite) Fig1b(app string) (*stats.Table, error) {
	w, err := s.Workload(app)
	if err != nil {
		return nil, err
	}
	chain := s.instReuse(w, app).Chain
	labels := []string{"0", "1-16", "16-512", "512-1024", "1024-10000", ">10000"}
	t := &stats.Table{Header: append([]string{"from\\to"}, labels...)}
	for i, row := range chain {
		cells := make([]any, 0, len(row)+1)
		cells = append(cells, labels[i])
		for _, p := range row {
			cells = append(cells, fmt.Sprintf("%.3f", p))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// Fig3a compares always-insert i-Filter, access-count bypass, and OPT
// replacement speedups over the LRU+FDP baseline.
func (s *Suite) Fig3a() (*stats.Table, error) {
	apps := s.AppNames()
	schemes := []string{Baseline, "ifilter", "access-count", "opt"}
	if err := s.Require(CrossCells(apps, schemes, "fdp")...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"app", "always-insert", "access-count", "OPT"}}
	var a1, a2, a3 []float64
	for _, app := range apps {
		v1 := s.speedupOver(app, Baseline, "ifilter", "fdp")
		v2 := s.speedupOver(app, Baseline, "access-count", "fdp")
		v3 := s.speedupOver(app, Baseline, "opt", "fdp")
		a1, a2, a3 = append(a1, v1), append(a2, v2), append(a3, v3)
		t.AddRow(app, v1, v2, v3)
	}
	t.AddRow("gmean", stats.Geomean(a1), stats.Geomean(a2), stats.Geomean(a3))
	return t, nil
}

// Fig3bEdges are the signed reuse-delta bucket edges of Fig 3b.
var Fig3bEdges = []float64{-10000, -1000, -100, -10, 0, 10, 100, 1000, 10000}

// Fig3b histograms, for the named app, the difference between the next-use
// distance of each block moving from the i-Filter into the i-cache and that
// of the block OPT would evict from the target set. Positive deltas are
// wrong insertions (the paper measures 38.38% for media streaming).
func (s *Suite) Fig3b(app string) (*stats.Histogram, float64, error) {
	w, err := s.Workload(app)
	if err != nil {
		return nil, 0, err
	}
	cc := core.DefaultConfig()
	cc.Variant = core.VariantAlwaysAdmit
	oracle := analysis.NewNextUseOracle(w.Blocks)
	sub := icache.MustNew(icache.Config{Sets: icache.DefaultSets, Ways: icache.DefaultWays, Policy: policy.NewLRU(), ACIC: &cc, NextUse: oracle.Func(), Sample: s.sampleFilter(app)})
	h := stats.NewHistogram(Fig3bEdges...)
	var wrong, total uint64
	sub.ACIC().OnDecision = func(d core.Decision) {
		dIn := clampDist(oracle.NextUse(d.Victim, d.AccessIdx) - d.AccessIdx)
		// The outgoing block OPT would pick: the set line with the furthest
		// next use at decision time.
		set := sub.L1().SetIndex(d.Victim)
		dOut := float64(0)
		for _, ln := range sub.L1().Lines(set) {
			if !ln.Valid {
				continue
			}
			if v := clampDist(oracle.NextUse(ln.Block, d.AccessIdx) - d.AccessIdx); v > dOut {
				dOut = v
			}
		}
		delta := dIn - dOut
		h.Add(delta)
		total++
		if delta > 0 {
			wrong++
		}
	}
	if _, err := RunSubsystem(w, sub, s.options(app)); err != nil {
		return nil, 0, err
	}
	frac := 0.0
	if total > 0 {
		frac = float64(wrong) / float64(total)
	}
	return h, frac, nil
}

func clampDist(d int64) float64 {
	if d >= cacheNever {
		return 1e12
	}
	return float64(d)
}

const cacheNever = int64(1) << 61

// Fig6Edges bucket CSHR entry lifetimes (in set-local comparisons).
var Fig6Edges = []float64{50, 100, 150, 200, 250, 300, 350, 400}

// Fig6 histograms the number of comparisons during CSHR entry lifetimes for
// the named app; unresolved (evicted) entries land in the overflow bucket,
// mirroring the paper's "InF" bar.
func (s *Suite) Fig6(app string) (*stats.Histogram, error) {
	w, err := s.Workload(app)
	if err != nil {
		return nil, err
	}
	cc := core.DefaultConfig()
	// Measure lifetimes with an effectively unbounded CSHR so that "would
	// never resolve" is separated from "evicted at 256 entries", as the
	// paper's incremental-capacity study does.
	cc.CSHR.Ways = 4096
	sub := icache.MustNew(icache.Config{Sets: icache.DefaultSets, Ways: icache.DefaultWays, Policy: policy.NewLRU(), ACIC: &cc, Sample: s.sampleFilter(app)})
	h := stats.NewHistogram(Fig6Edges...)
	sub.ACIC().AgeSamples = func(age int64, resolved bool) {
		if !resolved {
			age = math.MaxInt32 // overflow bucket
		}
		h.Add(float64(age))
	}
	if _, err := RunSubsystem(w, sub, s.options(app)); err != nil {
		return nil, err
	}
	// Entries still unresolved at the end of the run count as InF.
	if occ := sub.ACIC().CSHR.Occupancy(); occ > 0 {
		for i := 0; i < occ; i++ {
			h.Add(math.MaxInt32)
		}
	}
	return h, nil
}

// Fig10 reports per-app speedups of every Fig 10 scheme over the LRU+FDP
// baseline, with a trailing gmean row.
func (s *Suite) Fig10() (*stats.Table, error) { return s.schemeTable(Fig10Schemes, "fdp", true) }

// Fig11 reports per-app MPKI reductions of every Fig 10 scheme over the
// LRU+FDP baseline, with a trailing average row.
func (s *Suite) Fig11() (*stats.Table, error) { return s.schemeTable(Fig10Schemes, "fdp", false) }

func (s *Suite) schemeTable(schemes []string, pf string, speedup bool) (*stats.Table, error) {
	foot := "avg"
	if speedup {
		foot = "gmean"
	}
	return s.compareTable(s.AppNames(), schemes, pf, speedup, foot)
}

// compareTable renders the shared shape of Figs 10/11/18-21: one row per
// app, one column per scheme (speedup or MPKI reduction over Baseline),
// and a footer aggregating each column (geomean for speedups, mean for
// reductions) under the given label.
func (s *Suite) compareTable(apps, schemes []string, pf string, speedup bool, footLabel string) (*stats.Table, error) {
	if err := s.Require(CrossCells(apps, append([]string{Baseline}, schemes...), pf)...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: append([]string{"app"}, schemes...)}
	sums := make([][]float64, len(schemes))
	for _, app := range apps {
		cells := make([]any, 0, len(schemes)+1)
		cells = append(cells, app)
		for i, sch := range schemes {
			var v float64
			if speedup {
				v = s.speedupOver(app, Baseline, sch, pf)
				cells = append(cells, fmt.Sprintf("%.4f", v))
			} else {
				v = s.mpkiReductionOver(app, Baseline, sch, pf)
				cells = append(cells, stats.Percent(v))
			}
			sums[i] = append(sums[i], v)
		}
		t.AddRow(cells...)
	}
	foot := make([]any, 0, len(schemes)+1)
	foot = append(foot, footLabel)
	for i := range schemes {
		if speedup {
			foot = append(foot, fmt.Sprintf("%.4f", stats.Geomean(sums[i])))
		} else {
			foot = append(foot, stats.Percent(stats.Mean(sums[i])))
		}
	}
	t.AddRow(foot...)
	return t, nil
}

// Fig12aRanges are the [0,bound) next-use windows of Fig 12a; 0 means no
// bound ("[0,InF)").
var Fig12aRanges = []int64{0, 2048, 1024, 512, 256, 128}

// Fig12a measures ACIC bypass accuracy over decisions whose nearer next-use
// distance falls inside each window, averaged across apps.
func (s *Suite) Fig12a() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.PrepareAll(apps...); err != nil {
		return nil, err
	}
	// One instrumented run per app, reduced to per-range tallies inside
	// the decision callback so no app's raw decision stream is retained;
	// per-app partials merge in app order afterward.
	type tally struct{ correct, count []int64 }
	partials := make([]tally, len(apps))
	err := s.each(len(apps), func(i int) error {
		partials[i] = tally{make([]int64, len(Fig12aRanges)), make([]int64, len(Fig12aRanges))}
		w := s.wl(apps[i])
		oracle := analysis.NewNextUseOracle(w.Blocks)
		cc := core.DefaultConfig()
		sub := icache.MustNew(icache.Config{Sets: icache.DefaultSets, Ways: icache.DefaultWays, Policy: policy.NewLRU(), ACIC: &cc, Sample: s.sampleFilter(apps[i])})
		sub.ACIC().OnDecision = func(d core.Decision) {
			dIn := oracle.NextUse(d.Victim, d.AccessIdx) - d.AccessIdx
			dOut := oracle.NextUse(d.Contender, d.AccessIdx) - d.AccessIdx
			ideal := dIn < dOut
			near := dIn
			if dOut < near {
				near = dOut
			}
			for ri, bound := range Fig12aRanges {
				if bound != 0 && near >= bound {
					continue
				}
				partials[i].count[ri]++
				if ideal == d.Admitted {
					partials[i].correct[ri]++
				}
			}
		}
		if _, err := RunSubsystem(w, sub, s.options(apps[i])); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	correct := make([]float64, len(Fig12aRanges))
	counts := make([]float64, len(Fig12aRanges))
	for i := range apps {
		for ri := range Fig12aRanges {
			correct[ri] += float64(partials[i].correct[ri])
			counts[ri] += float64(partials[i].count[ri])
		}
	}
	t := &stats.Table{Header: []string{"range", "avg accuracy"}}
	for ri, bound := range Fig12aRanges {
		label := "[0,InF)"
		if bound != 0 {
			label = fmt.Sprintf("[0,%d)", bound)
		}
		acc := 0.0
		if counts[ri] > 0 {
			acc = correct[ri] / counts[ri]
		}
		t.AddRow(label, stats.Percent(acc))
	}
	return t, nil
}

// Fig12b compares the MPKI reduction of a 60%-admit random bypass against
// ACIC, per app.
func (s *Suite) Fig12b() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.Require(CrossCells(apps, []string{Baseline, "random60", "acic"}, "fdp")...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"app", "random-60%", "acic"}}
	var r1, r2 []float64
	for _, app := range apps {
		v1 := s.mpkiReductionOver(app, Baseline, "random60", "fdp")
		v2 := s.mpkiReductionOver(app, Baseline, "acic", "fdp")
		r1, r2 = append(r1, v1), append(r2, v2)
		t.AddRow(app, stats.Percent(v1), stats.Percent(v2))
	}
	t.AddRow("avg", stats.Percent(stats.Mean(r1)), stats.Percent(stats.Mean(r2)))
	return t, nil
}

// Fig13 reports the percentage of i-Filter victims ACIC admits per app.
func (s *Suite) Fig13() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.PrepareAll(apps...); err != nil {
		return nil, err
	}
	admitted := make([]float64, len(apps))
	err := s.each(len(apps), func(i int) error {
		w := s.wl(apps[i])
		cc := core.DefaultConfig()
		sub := icache.MustNew(icache.Config{Sets: icache.DefaultSets, Ways: icache.DefaultWays, Policy: policy.NewLRU(), ACIC: &cc, Sample: s.sampleFilter(apps[i])})
		if _, err := RunSubsystem(w, sub, s.options(apps[i])); err != nil {
			return err
		}
		admitted[i] = sub.ACIC().AdmitFraction()
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"app", "admitted"}}
	for i, app := range apps {
		t.AddRow(app, stats.Percent(admitted[i]))
	}
	return t, nil
}

// Fig14 compares MPKI reduction with the 2-cycle parallel predictor update
// against instant updates, per app.
func (s *Suite) Fig14() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.Require(CrossCells(apps, []string{Baseline, "acic", "acic-instant"}, "fdp")...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"app", "parallel", "instant"}}
	var r1, r2 []float64
	for _, app := range apps {
		v1 := s.mpkiReductionOver(app, Baseline, "acic", "fdp")
		v2 := s.mpkiReductionOver(app, Baseline, "acic-instant", "fdp")
		r1, r2 = append(r1, v1), append(r2, v2)
		t.AddRow(app, stats.Percent(v1), stats.Percent(v2))
	}
	t.AddRow("avg", stats.Percent(stats.Mean(r1)), stats.Percent(stats.Mean(r2)))
	return t, nil
}

// Fig15Variants are the sensitivity configurations of Fig 15.
var Fig15Variants = []struct {
	Name   string
	Mutate func(*core.Config)
}{
	{"default", func(*core.Config) {}},
	{"2k-hrt", func(c *core.Config) { c.Predictor.HRTEntries = 2048 }},
	{"512-hrt", func(c *core.Config) { c.Predictor.HRTEntries = 512 }},
	{"8bit-history", func(c *core.Config) { c.Predictor.HistoryBits = 8 }},
	{"10bit-history", func(c *core.Config) { c.Predictor.HistoryBits = 10 }},
	{"2bit-counter", func(c *core.Config) { c.Predictor.CounterBits = 2 }},
	{"8bit-counter", func(c *core.Config) { c.Predictor.CounterBits = 8 }},
	{"8-slot-filter", func(c *core.Config) { c.FilterSlots = 8 }},
	{"32-slot-filter", func(c *core.Config) { c.FilterSlots = 32 }},
	{"7bit-cshr-tag", func(c *core.Config) { c.CSHR.TagBits = 7 }},
	{"27bit-cshr-tag", func(c *core.Config) { c.CSHR.TagBits = 27 }},
}

// Fig15 sweeps ACIC's key parameters and reports gmean speedup over the
// baseline for each variant.
func (s *Suite) Fig15() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.Require(CrossCells(apps, []string{Baseline, "acic"}, "fdp")...); err != nil {
		return nil, err
	}
	speedups := make([][]float64, len(Fig15Variants))
	for i := range speedups {
		speedups[i] = make([]float64, len(apps))
	}
	err := s.eachCell(len(Fig15Variants), len(apps), func(vi, ai int) error {
		app := apps[ai]
		cc := core.DefaultConfig()
		Fig15Variants[vi].Mutate(&cc)
		res, err := s.acicVariant(app, cc)
		if err != nil {
			return err
		}
		speedups[vi][ai] = Speedup(s.res(app, Baseline, "fdp"), res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"variant", "gmean speedup"}}
	for vi, v := range Fig15Variants {
		t.AddRow(v.Name, stats.Geomean(speedups[vi]))
	}
	return t, nil
}

// acicVariant returns the fdp result of an ACIC complex configured by cc
// over the LRU i-cache. The default configuration is the memoized acic
// cell, which the caller must have Required; any other configuration is
// simulated here.
func (s *Suite) acicVariant(app string, cc core.Config) (cpu.Result, error) {
	if cc == core.DefaultConfig() {
		return s.res(app, "acic", "fdp"), nil
	}
	sub := icache.MustNew(icache.Config{Sets: icache.DefaultSets, Ways: icache.DefaultWays, Policy: policy.NewLRU(), ACIC: &cc, Sample: s.sampleFilter(app)})
	return RunSubsystem(s.wl(app), sub, s.options(app))
}

// Fig16 reports ACIC's speedup over the FDP baseline *equipped with an
// i-Filter* (the bypass policy's own contribution).
func (s *Suite) Fig16() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.Require(CrossCells(apps, []string{"ifilter", "acic"}, "fdp")...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"app", "speedup over lru+ifilter"}}
	var all []float64
	for _, app := range apps {
		v := s.speedupOver(app, "ifilter", "acic", "fdp")
		all = append(all, v)
		t.AddRow(app, v)
	}
	t.AddRow("gmean", stats.Geomean(all))
	return t, nil
}

// Fig17Schemes are the simplified designs of Fig 17.
var Fig17Schemes = []string{"acic", "acic-nofilter", "ifilter", "acic-global", "acic-bimodal"}

// Fig17 reports gmean speedups of ACIC's simplified designs.
func (s *Suite) Fig17() (*stats.Table, error) {
	apps := s.AppNames()
	if err := s.Require(CrossCells(apps, append([]string{Baseline}, Fig17Schemes...), "fdp")...); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"design", "gmean speedup"}}
	for _, sch := range Fig17Schemes {
		var all []float64
		for _, app := range apps {
			all = append(all, s.speedupOver(app, Baseline, sch, "fdp"))
		}
		t.AddRow(sch, stats.Geomean(all))
	}
	return t, nil
}

// SPECSchemes are the policies compared on SPEC (Figs 18/19) and on the
// entangling baseline (Figs 20/21).
var SPECSchemes = []string{"ghrp", "l1i-36k", "acic", "opt"}

// Fig18 reports SPEC speedups of GHRP, the 36KB L1i, ACIC, and OPT.
func (s *Suite) Fig18() (*stats.Table, error) { return s.specTable(true) }

// Fig19 reports SPEC MPKI reductions.
func (s *Suite) Fig19() (*stats.Table, error) { return s.specTable(false) }

func (s *Suite) specTable(speedup bool) (*stats.Table, error) {
	return s.compareTable(s.SPECNames(), SPECSchemes, "fdp", speedup, "gmean/avg")
}

// Fig20 reports datacenter speedups over the entangling-prefetcher
// baseline.
func (s *Suite) Fig20() (*stats.Table, error) { return s.entTable(true) }

// Fig21 reports datacenter MPKI reductions over the entangling baseline.
func (s *Suite) Fig21() (*stats.Table, error) { return s.entTable(false) }

func (s *Suite) entTable(speedup bool) (*stats.Table, error) {
	return s.compareTable(s.AppNames(), SPECSchemes, "entangling", speedup, "gmean/avg")
}
