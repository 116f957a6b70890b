package main

import (
	"fmt"
	"time"

	"acic/internal/analysis"
	"acic/internal/cpu"
	"acic/internal/experiments"
	"acic/internal/mem"
)

// layerApp is the datacenter workload the simulation layers are replayed
// on.
const layerApp = "media-streaming"

// simLayers times the load and simulation layers component by component
// over the warm store: Suite.PrepareAll, the next-use oracle, serial
// experiments.Run per scheme, one gang of the same cells, and the i-cache
// and memory hierarchy replayed alone.
func (b *bench) simLayers(store string, parent int) error {
	s := experiments.NewSuite(b.cfg.n)
	s.Workers = b.cfg.workers
	s.ArtifactDir = store
	if err := s.CacheError(); err != nil {
		return err
	}
	apps := paperApps()
	_, end := b.tr.begin("experiments.prepare_warm_s", parent)
	err := s.PrepareAll(apps...)
	b.res.set("experiments.prepare_warm_s", "s", end().Seconds())
	b.res.op(err)
	if err != nil {
		return nil
	}
	var oracle time.Duration
	for _, app := range apps {
		w, err := s.Workload(app)
		if err != nil {
			return err
		}
		_, end := b.tr.begin("analysis.oracle_s", parent)
		analysis.NewNextUseOracle(w.Blocks)
		oracle += end()
	}
	b.res.set("analysis.oracle_s", "s", oracle.Seconds())

	w, err := s.Workload(layerApp)
	if err != nil {
		return err
	}
	insts := float64(w.Prog.Len())
	opts := experiments.DefaultOptions()
	schemes := append([]string{experiments.Baseline}, experiments.Fig10Schemes...)

	// Serial runs, one scheme at a time, then the same cells as one gang.
	serial := map[string]cpu.Result{}
	var serialTotal, lruRun time.Duration
	for _, sch := range schemes {
		_, end := b.tr.begin("experiments.run."+sch, parent)
		res, err := experiments.Run(w, sch, opts)
		d := end()
		b.res.op(err)
		serial[sch] = res
		serialTotal += d
		if sch == experiments.Baseline {
			lruRun = d
		}
		b.res.set("cpu.minst_per_s."+sch, "Minst/s", insts/d.Seconds()/1e6)
	}
	cells := make([]experiments.GangCell, len(schemes))
	for i, sch := range schemes {
		cells[i] = experiments.GangCell{Scheme: sch, Prefetcher: opts.Prefetcher}
	}
	_, end = b.tr.begin("experiments.run_gang", parent)
	gang, _, errs := experiments.RunGangCells(w, cells, opts)
	gangTime := end()
	for i, sch := range schemes {
		b.res.op(errs[i])
		if errs[i] == nil && gang[i] != serial[sch] {
			b.res.fail("gang result for %s differs from the serial run", sch)
		}
	}
	b.res.set("cpu.gang_speedup", "x", serialTotal.Seconds()/gangTime.Seconds())

	// The i-cache schemes alone: the workload's block sequence replayed
	// through Fetch, with no core model, prefetcher or memory hierarchy.
	fetchNS := map[string]float64{}
	for _, sch := range schemes {
		sub, err := experiments.NewScheme(sch, w)
		b.res.op(err)
		if err != nil {
			continue
		}
		_, end := b.tr.begin("icache.fetch."+sch, parent)
		for i, blk := range w.Blocks {
			sub.Fetch(blk, int64(i), int64(i))
		}
		fetchNS[sch] = float64(end().Nanoseconds()) / float64(len(w.Blocks))
		b.res.set("icache.fetch_ns."+sch, "ns", fetchNS[sch])
	}
	b.res.set("core.acic_ns", "ns", fetchNS["acic"]-fetchNS[experiments.Baseline])

	// The LRU miss stream through the memory hierarchy alone.
	sub, err := experiments.NewScheme(experiments.Baseline, w)
	if err != nil {
		return err
	}
	var misses []uint64
	for i, blk := range w.Blocks {
		if !sub.Fetch(blk, int64(i), int64(i)) {
			misses = append(misses, blk)
		}
	}
	if len(misses) == 0 {
		return fmt.Errorf("%s: the LRU replay has no misses", layerApp)
	}
	h := mem.New(mem.DefaultConfig())
	_, end = b.tr.begin("mem.instr_miss", parent)
	for _, blk := range misses {
		h.InstrMiss(blk)
	}
	memTime := end()
	b.res.set("mem.instr_miss_ns", "ns", float64(memTime.Nanoseconds())/float64(len(misses)))
	lruFetch := time.Duration(fetchNS[experiments.Baseline] * float64(len(w.Blocks)))
	b.res.set("cpu.timing_self_ns", "ns/inst", float64((lruRun-lruFetch-memTime).Nanoseconds())/insts)
	return nil
}
