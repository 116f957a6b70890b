// Command acic-sim runs a single workload under one or more schemes and
// prints cycles, IPC, MPKI, and subsystem statistics, plus a per-decision
// note for every scheme carrying an ACIC complex: its admission decisions
// scored against the next-use oracle. It is the low-level probe tool; use
// acic-bench to regenerate the paper's tables and figures.
//
// The schemes run as cells of an experiments.Suite — the same engine,
// worker pool and retry path acic-bench runs on (DESIGN.md §13) — with the
// ACIC decision recorder attached through Suite.Instrument. Rows are
// always printed in the order the schemes were listed. -fault-spec
// injects deterministic faults into that path; the recovery counters are
// printed on stderr. SIGINT/SIGTERM cancel not-yet-started schemes and
// exit 130.
//
// With -artifact-dir (or ACIC_ARTIFACT_DIR) the prepared workload — trace,
// annotated program, successor array, data-latency timeline — is loaded
// from (and written to) the persistent artifact store shared with
// acic-bench and `acic-trace warm`, so repeated probes of one workload
// skip the prepare phase.
//
// Usage:
//
//	acic-sim -workload media-streaming -schemes acic -n 1000000
//	acic-sim -workload web-search -schemes lru,acic,opt -n 500000
//	acic-sim -workload tpcc -schemes lru,acic -artifact-dir ~/.cache/acic-artifacts
//	acic-sim -workload tpcc -schemes lru,acic -sample-sets 8   # set-sampled fast mode
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"acic/cmd/internal/cliutil"
	"acic/internal/analysis"
	"acic/internal/core"
	"acic/internal/experiments"
	"acic/internal/icache"
	"acic/internal/stats"
	"acic/internal/workload"
)

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

// capture is one cell's ACIC decision recording: the subsystem that ran
// and the decisions its ACIC complex reported.
type capture struct {
	sub       icache.Subsystem
	decisions *[]core.Decision
}

// recorder collects the ACIC decisions of every simulated cell. It is the
// suite's Instrument hook: each call attaches a fresh recording and
// replaces the cell's previous one, so the partial decisions of an
// attempt that failed (and that the suite retried) never count.
type recorder struct {
	mu    sync.Mutex
	cells map[experiments.Cell]capture
}

func (r *recorder) instrument(c experiments.Cell, sub icache.Subsystem) {
	cx, ok := sub.(*icache.Complex)
	if !ok || cx.ACIC() == nil {
		return
	}
	decisions := new([]core.Decision)
	cx.ACIC().OnDecision = func(d core.Decision) { *decisions = append(*decisions, d) }
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells[c] = capture{sub, decisions}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("acic-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "media-streaming", "workload profile name (see acic-trace -list)")
		schemes  = fs.String("schemes", "lru,acic,opt", "comma-separated scheme names")
		pf       = fs.String("prefetcher", "fdp", "prefetcher: "+strings.Join(experiments.Prefetchers(), ", "))
		sim      = cliutil.RegisterSim(fs)
		showDist = fs.Bool("reuse", false, "also print the reuse-distance distribution")
	)
	fs.IntVar(&sim.N, "n", 1_000_000, "trace length in instructions")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "acic-sim: "+format+"\n", args...)
		return 1
	}

	if err := sim.Validate(); err != nil {
		return fail("%v", err)
	}
	if err := sim.InstallFaults(); err != nil {
		return fail("-fault-spec: %v", err)
	}
	// SIGINT/SIGTERM cancel not-yet-started schemes; the one in flight
	// finishes and the process exits cliutil.ExitInterrupted.
	ctx, stopSignals := cliutil.InterruptContext()
	defer stopSignals()
	prof, ok := workload.ByName(*name)
	if !ok {
		return fail("unknown workload %q", *name)
	}
	rec := &recorder{cells: make(map[experiments.Cell]capture)}
	sim.Apps = []string{prof.Name}
	suite := sim.NewSuite(ctx)
	suite.Instrument = rec.instrument
	if err := suite.CacheError(); err != nil {
		return fail("%v", err)
	}
	// The recovery counters go to stderr whenever faults were injected or
	// absorbed, on every exit path past this point.
	defer func() {
		if fstats := suite.FaultStats(); sim.FaultSpec != "" || fstats.Any() {
			fmt.Fprintln(stderr, fstats)
		}
	}()
	w, err := suite.Workload(prof.Name)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stdout, "workload %s: %d instructions, %d block accesses, footprint %d blocks\n",
		prof.Name, w.Prog.Len(), len(w.Blocks), footprint(w.Blocks))

	if *showDist {
		dists := analysis.ReuseDistances(w.Blocks)
		fr := analysis.Distribution(dists, analysis.Fig1aEdges)
		fmt.Fprintf(stdout, "reuse distances: 0:%.1f%% 1-16:%.2f%% 16-512:%.2f%% 512-1024:%.2f%% 1024-10000:%.2f%% >10000:%.2f%%\n",
			fr[0]*100, fr[1]*100, fr[2]*100, fr[3]*100, fr[4]*100, fr[5]*100)
	}

	if sample, _ := experiments.SampleConfigFor(sim.SampleSets, prof.Name); sample.Enabled() {
		fmt.Fprintf(stdout, "set-sampled fast mode: %d of %d sets (stride %d, constituency %d); misses and stalls extrapolated, see DESIGN.md §10 for error bars\n",
			sim.SampleSets, icache.DefaultSets, sample.Stride, sample.Offset)
	}

	var order []string
	for _, s := range strings.Split(*schemes, ",") {
		order = append(order, strings.TrimSpace(s))
	}
	// Plan → execute: every scheme is a cell over the shared workload; the
	// suite dedupes repeats and runs the rest on its worker pool.
	if err := suite.Require(experiments.CrossCells(suite.Apps, order, *pf)...); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "acic-sim: interrupted")
			return cliutil.ExitInterrupted
		}
		return fail("%v", err)
	}

	// Render in the order the schemes were listed: the first is the
	// speedup/MPKI-reduction base.
	tbl := &stats.Table{Header: []string{"scheme", "cycles", "IPC", "MPKI", "speedup", "filter-hit%", "miss-reduction"}}
	var baseCycles int64
	var baseMPKI float64
	var acicNotes []string
	for _, scheme := range order {
		res, err := suite.Result(prof.Name, scheme, *pf)
		if err != nil {
			return fail("%v", err)
		}
		if capt, ok := rec.cells[experiments.Cell{App: prof.Name, Scheme: scheme, Prefetcher: *pf}]; ok {
			acicNotes = append(acicNotes, acicNote(w, scheme, capt.sub, capt.decisions))
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
	fmt.Fprint(stdout, tbl.String())
	for _, n := range acicNotes {
		fmt.Fprintln(stdout, n)
	}
	return 0
}

// acicNote summarizes a run's captured ACIC admission decisions against
// a next-use oracle it builds over the workload's block sequence for this
// note ("" for schemes without an ACIC complex).
func acicNote(w *experiments.Workload, scheme string, sub icache.Subsystem, captured *[]core.Decision) string {
	cx, ok := sub.(*icache.Complex)
	if !ok || cx.ACIC() == nil || captured == nil {
		return ""
	}
	a := cx.ACIC()
	decisions := *captured
	oracle := analysis.NewNextUseOracle(w.Blocks)
	correct, shouldAdmit := 0, 0
	for _, d := range decisions {
		vNext := oracle.NextUse(d.Victim, d.AccessIdx)
		cNext := oracle.NextUse(d.Contender, d.AccessIdx)
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
		if oracle.NextUse(d.Victim, d.AccessIdx) < oracle.NextUse(d.Contender, d.AccessIdx) {
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
	denom := float64(max(len(decisions), 1)) // a run without decisions reports 0%
	return fmt.Sprintf(
		"%s: decisions=%d admit=%.1f%% ideal-admit=%.1f%% accuracy=%.1f%% ceiling=%.1f%% cshr[v=%d c=%d evict=%d]",
		scheme, a.Decisions, 100*a.AdmitFraction(),
		100*float64(shouldAdmit)/denom,
		100*float64(correct)/denom,
		100*float64(ceiling)/denom,
		a.CSHR.ResolvedVictim, a.CSHR.ResolvedContend, a.CSHR.EvictedUnres)
}
