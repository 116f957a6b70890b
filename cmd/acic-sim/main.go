// Command acic-sim runs a single (workload, scheme) simulation and prints
// cycles, IPC, MPKI, and subsystem statistics. It is the low-level probe
// tool; use acic-bench to regenerate the paper's tables and figures.
//
// When several schemes are given over a long trace (>= 1M instructions,
// the default -n) they are simulated as a gang — one traversal of the
// shared trace drives every scheme; shorter runs use independent cells on
// a worker pool. -gang on|off overrides; results are identical in every
// mode. Rows are always printed in the order the schemes were listed.
//
// A gang whose run panics or errors degrades to independent serial runs
// with bounded retries (DESIGN.md §13); -fault-spec injects deterministic
// faults to exercise that ladder. SIGINT/SIGTERM cancel not-yet-started
// schemes and exit 130.
//
// With -artifact-dir (or ACIC_ARTIFACT_DIR) the prepared workload — trace,
// annotated program, successor array, data-latency timeline — is loaded
// from (and written to) the persistent artifact store shared with
// acic-bench and `acic-trace warm`, so repeated probes of one workload
// skip the prepare phase.
//
// Usage:
//
//	acic-sim -workload media-streaming -scheme acic -n 1000000
//	acic-sim -workload web-search -schemes lru,acic,opt -n 500000
//	acic-sim -workload web-search -schemes lru,acic -gang off
//	acic-sim -workload tpcc -schemes lru,acic -artifact-dir ~/.cache/acic-artifacts
//	acic-sim -workload tpcc -schemes lru,acic -sample-sets 8   # set-sampled fast mode
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"acic/cmd/internal/cliutil"
	"acic/internal/analysis"
	"acic/internal/core"
	"acic/internal/cpu"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
	"acic/internal/faults"
	"acic/internal/icache"
	"acic/internal/stats"
	"acic/internal/workload"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "acic-sim: "+format+"\n", args...)
	os.Exit(1)
}

// footprint counts distinct blocks in the collapsed access sequence —
// the same set trace.Trace.Footprint reports, but computable for
// streamed-prepared workloads that carry no Inst records.
func footprint(blocks []uint64) int {
	seen := make(map[uint64]struct{}, len(blocks)/8+1)
	for _, b := range blocks {
		seen[b] = struct{}{}
	}
	return len(seen)
}

// schemeRun is one scheme's simulation output: the timing result plus the
// ACIC diagnostics note, when the scheme carries an ACIC complex.
type schemeRun struct {
	res  cpu.Result
	note string
}

func main() {
	var (
		name     = flag.String("workload", "media-streaming", "workload profile name (see acic-trace -list)")
		schemes  = flag.String("schemes", "lru,acic,opt", "comma-separated scheme names")
		n        = flag.Int("n", 1_000_000, "trace length in instructions")
		pf       = flag.String("prefetcher", "fdp", "prefetcher: "+strings.Join(experiments.Prefetchers(), ", "))
		warmup   = flag.Float64("warmup", 0.1, "warmup fraction")
		sim      = cliutil.RegisterSim(flag.CommandLine)
		showDist = flag.Bool("reuse", false, "also print the reuse-distance distribution")
	)
	flag.Parse()

	if err := sim.Validate(); err != nil {
		fail("%v", err)
	}
	if err := sim.InstallFaults(); err != nil {
		fail("-fault-spec: %v", err)
	}
	// SIGINT/SIGTERM cancel not-yet-started schemes; the one in flight
	// finishes and the process exits cliutil.ExitInterrupted.
	ctx, stopSignals := cliutil.InterruptContext()
	defer stopSignals()
	prof, ok := workload.ByName(*name)
	if !ok {
		fail("unknown workload %q", *name)
	}
	pool := engine.NewPool(sim.Workers)
	pipeline, err := experiments.NewPipeline(experiments.PipelineConfig{
		N: *n, Dir: sim.ArtifactDir, Pool: pool, Window: sim.PrepareWindow,
	})
	if err != nil {
		fail("%v", err)
	}
	w, err := pipeline.Workload(*name)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("workload %s: %d instructions, %d block accesses, footprint %d blocks\n",
		prof.Name, w.Prog.Len(), len(w.Blocks), footprint(w.Blocks))

	if *showDist {
		dists := analysis.ReuseDistances(w.Blocks)
		fr := analysis.Distribution(dists, analysis.Fig1aEdges)
		fmt.Printf("reuse distances: 0:%.1f%% 1-16:%.2f%% 16-512:%.2f%% 512-1024:%.2f%% 1024-10000:%.2f%% >10000:%.2f%%\n",
			fr[0]*100, fr[1]*100, fr[2]*100, fr[3]*100, fr[4]*100, fr[5]*100)
	}

	opts := experiments.DefaultOptions()
	opts.Prefetcher = *pf
	opts.WarmupFrac = *warmup
	sampleSets, err := sim.ResolveSampleSets()
	if err != nil {
		fail("%v", err)
	}
	if opts.Sample, err = experiments.SampleConfigFor(sampleSets, sim.SampleOffset, *name); err != nil {
		fail("%v", err)
	}
	if opts.GangWindow, err = sim.ResolveGangWindow(); err != nil {
		fail("%v", err)
	}
	if opts.Sample.Enabled() {
		fmt.Printf("set-sampled fast mode: %d of %d sets (stride %d, constituency %d); misses and stalls extrapolated, see DESIGN.md §10 for error bars\n",
			sampleSets, cliutil.DefaultL1Sets, opts.Sample.Stride, opts.Sample.Offset)
	}

	var order []string
	for _, s := range strings.Split(*schemes, ",") {
		order = append(order, strings.TrimSpace(s))
	}

	// Plan → execute: every scheme is an independent cell over the shared
	// workload; the group dedupes repeats. With -gang the deduplicated list
	// runs as gang simulations (one trace traversal per gang of up to
	// -gang-size schemes); otherwise cells run in parallel on the pool.
	// Either way each scheme's result is identical.
	runs := engine.NewGroup(pool, func(scheme string) (schemeRun, error) {
		if err := ctx.Err(); err != nil {
			return schemeRun{}, err
		}
		return runScheme(w, scheme, opts)
	})
	runs.Name = "scheme"
	runs.Retry = engine.DefaultRetry()
	if sim.GangEnabled(*n) && sim.GangSize > 1 {
		runGangs(ctx, w, order, opts, sim.GangSize, runs)
	}
	if err := runs.Require(order...); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "acic-sim: interrupted")
			os.Exit(cliutil.ExitInterrupted)
		}
		fail("%v", err)
	}

	// Render in the order the schemes were listed: the first is the
	// speedup/MPKI-reduction base.
	tbl := &stats.Table{Header: []string{"scheme", "cycles", "IPC", "MPKI", "speedup", "filter-hit%", "miss-reduction"}}
	var baseCycles int64
	var baseMPKI float64
	var acicNotes []string
	for _, scheme := range order {
		run, err := runs.Get(scheme)
		if err != nil {
			fail("%v", err)
		}
		res := run.res
		if run.note != "" {
			acicNotes = append(acicNotes, run.note)
		}
		if baseCycles == 0 {
			baseCycles = res.Cycles
			baseMPKI = res.MPKI()
		}
		ic := res.ICache
		filterPct := 0.0
		if ic.Accesses > 0 {
			filterPct = 100 * float64(ic.FilterHits) / float64(ic.Accesses)
		}
		mpkiRed := 0.0
		if baseMPKI > 0 {
			mpkiRed = (baseMPKI - res.MPKI()) / baseMPKI
		}
		tbl.AddRow(scheme, res.Cycles, res.IPC(), res.MPKI(),
			float64(baseCycles)/float64(res.Cycles), fmt.Sprintf("%.1f", filterPct), stats.Percent(mpkiRed))
	}
	fmt.Print(tbl.String())
	for _, n := range acicNotes {
		fmt.Println(n)
	}
}

// instrument attaches an ACIC decision recorder when the subsystem carries
// an ACIC complex and returns the capture slot (nil otherwise).
func instrument(sub icache.Subsystem) *[]core.Decision {
	cx, ok := sub.(*icache.Complex)
	if !ok || cx.ACIC() == nil {
		return nil
	}
	decisions := new([]core.Decision)
	cx.ACIC().OnDecision = func(d core.Decision) { *decisions = append(*decisions, d) }
	return decisions
}

// runScheme simulates one scheme, collecting ACIC decision diagnostics
// when the subsystem exposes them.
func runScheme(w *experiments.Workload, scheme string, opts experiments.Options) (schemeRun, error) {
	sub, err := experiments.NewSampledScheme(scheme, w, opts.Sample)
	if err != nil {
		return schemeRun{}, err
	}
	captured := instrument(sub)
	res, err := experiments.RunSubsystem(w, sub, opts)
	if err != nil {
		return schemeRun{}, err
	}
	return schemeRun{res: res, note: acicNote(w, scheme, sub, captured)}, nil
}

// runGangs claims the not-yet-computed schemes of order and produces them
// through gang simulations of at most gangSize members each, fulfilling
// the run group's cells so rendering reads them exactly like serial runs.
// A gang that panics or errors degrades to independent serial runs with
// bounded retries — one poisoned member must not take its gang-mates'
// results down. Every claimed scheme is fulfilled on every path.
func runGangs(ctx context.Context, w *experiments.Workload, order []string, opts experiments.Options,
	gangSize int, runs *engine.Group[string, schemeRun]) {
	rerunSerial := func(scheme string) {
		run, err, _ := engine.Retry(runs.Retry, scheme, false, func() (schemeRun, error) {
			return runScheme(w, scheme, opts)
		})
		runs.Fulfill(scheme, run, err)
	}
	var uniq []string
	for _, s := range order {
		if runs.TryClaim(s) {
			uniq = append(uniq, s)
		}
	}
	for at := 0; at < len(uniq); at += gangSize {
		chunk := uniq[at:min(at+gangSize, len(uniq))]
		if err := ctx.Err(); err != nil {
			for _, scheme := range chunk {
				runs.Fulfill(scheme, schemeRun{}, err)
			}
			continue
		}
		subs := make([]icache.Subsystem, 0, len(chunk))
		captures := make([]*[]core.Decision, 0, len(chunk))
		members := make([]string, 0, len(chunk))
		for _, scheme := range chunk {
			sub, err := experiments.NewSampledScheme(scheme, w, opts.Sample)
			if err != nil {
				// A bad scheme name is deterministic: fail that cell now
				// rather than spending a serial rerun on it.
				runs.Fulfill(scheme, schemeRun{}, err)
				continue
			}
			subs = append(subs, sub)
			captures = append(captures, instrument(sub))
			members = append(members, scheme)
		}
		res, err := engine.Guard(fmt.Sprintf("gang[%d]", len(members)), true, func() ([]cpu.Result, error) {
			faults.PanicPoint("gang", w.Profile.Name+" "+strings.Join(members, ","))
			return experiments.RunGangSubsystems(w, subs, opts)
		})
		if err != nil {
			for _, scheme := range members {
				rerunSerial(scheme)
			}
			continue
		}
		for i, scheme := range members {
			runs.Fulfill(scheme, schemeRun{
				res:  res[i],
				note: acicNote(w, scheme, subs[i], captures[i]),
			}, nil)
		}
	}
}

// acicNote summarizes a run's captured ACIC admission decisions against
// the next-use oracle ("" for schemes without an ACIC complex).
func acicNote(w *experiments.Workload, scheme string, sub icache.Subsystem, captured *[]core.Decision) string {
	cx, ok := sub.(*icache.Complex)
	if !ok || cx.ACIC() == nil || captured == nil {
		return ""
	}
	a := cx.ACIC()
	decisions := *captured
	correct, shouldAdmit := 0, 0
	for _, d := range decisions {
		vNext := w.Oracle.NextUse(d.Victim, d.AccessIdx)
		cNext := w.Oracle.NextUse(d.Contender, d.AccessIdx)
		ideal := vNext < cNext
		if ideal {
			shouldAdmit++
		}
		if ideal == d.Admitted {
			correct++
		}
	}
	// Per-victim-block majority vote: the ceiling for any per-address
	// admission predictor.
	wins := map[uint64][2]int{}
	for _, d := range decisions {
		c := wins[d.Victim]
		if w.Oracle.NextUse(d.Victim, d.AccessIdx) < w.Oracle.NextUse(d.Contender, d.AccessIdx) {
			c[0]++
		} else {
			c[1]++
		}
		wins[d.Victim] = c
	}
	ceiling := 0
	for _, c := range wins {
		if c[0] > c[1] {
			ceiling += c[0]
		} else {
			ceiling += c[1]
		}
	}
	return fmt.Sprintf(
		"%s: decisions=%d admit=%.1f%% ideal-admit=%.1f%% accuracy=%.1f%% ceiling=%.1f%% cshr[v=%d c=%d evict=%d]",
		scheme, a.Decisions, 100*a.AdmitFraction(),
		100*float64(shouldAdmit)/float64(len(decisions)+1),
		100*float64(correct)/float64(len(decisions)+1),
		100*float64(ceiling)/float64(len(decisions)+1),
		a.CSHR.ResolvedVictim, a.CSHR.ResolvedContend, a.CSHR.EvictedUnres)
}
