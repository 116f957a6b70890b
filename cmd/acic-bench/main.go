// Command acic-bench regenerates the paper's tables and figures (see
// DESIGN.md §5 for the experiment index). Each experiment prints the same
// rows/series the paper reports; Table III's published MPKIs are
// workload.PaperMPKI, and perfbench's sim.table3_mpki_err_pct tracks how
// far the simulated MPKIs sit from them.
//
// Experiments plan their simulation cells up front and execute them on a
// worker pool (one worker per core by default), one simulation per cell;
// output is byte-identical at any worker count. With -cache-dir (or
// ACIC_CACHE_DIR) results persist on disk keyed by workload/trace-length/
// scheme/prefetcher, making reruns incremental; with -artifact-dir (or
// ACIC_ARTIFACT_DIR) the prepared workloads themselves — trace, annotated
// program, successor array, data-latency timeline — persist as
// content-addressed artifacts, so warm reruns skip the prepare phase and
// go straight to simulation (`acic-trace warm` fills the store up front).
//
// The -bench-json mode instead measures the distributed sweep (DESIGN.md
// §14): grid wall-clock single-process against a coordinator with 1/2/4
// workers, each lane cold and verified cell for cell, written as a JSON
// report that records its host. Simulator throughput and prepare cost are
// measured by perfbench/, not here. -cpuprofile/-memprofile write pprof
// data for any mode.
//
// The run is fault-hardened (DESIGN.md §13): a panicking or failing
// experiment is reported and the rest still run (exit 1 at the end);
// undecodable store entries quarantine and regenerate; -fault-spec (or
// ACIC_FAULT_SPEC) injects deterministic faults to exercise exactly those
// paths, with the recovery counters printed as a "faults:" line under
// -progress and recorded in the -bench-json report. SIGINT/SIGTERM cancel
// at cell boundaries and exit 130 with partial output flushed
// (-bench-json marks the report "interrupted": true).
//
// The -sample-sets mode is the set-sampled fast lane (DESIGN.md §10):
// only N of the 64 L1i sets are simulated and the statistics are
// extrapolated, making exploratory -exp sweeps ~5-7x faster with
// documented error bars; -sample-validate runs the headline grid both
// ways and prints the sampled-vs-full error-bar table, failing past
// -sample-err-pct.
//
// Usage:
//
//	acic-bench -exp all            # everything (minutes)
//	acic-bench -exp all -sample-sets 8   # set-sampled quick look (~5-7x faster)
//	acic-bench -sample-validate    # sampled-vs-full error bars + wall-clock
//	acic-bench -exp fig10,fig11    # the headline comparison
//	acic-bench -exp table3 -n 1000000
//	acic-bench -exp all -workers 4 -cache-dir ~/.cache/acic -progress
//	acic-bench -exp all -artifact-dir ~/.cache/acic-artifacts # warm prepare reuse
//	acic-bench -bench-json bench.json  # distributed sweep, every lane cold
//	acic-bench -exp fig10 -cpuprofile cpu.prof
//	acic-bench -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"acic/cmd/internal/cliutil"
	"acic/internal/experiments"
	"acic/internal/icache"
	"acic/internal/perf"
	"acic/internal/stats"
)

// runSampleValidate measures the set-sampled fast mode against the full
// reference: the headline grid (every Fig 10/11 scheme plus the baseline,
// all datacenter apps, FDP platform) is simulated through both lanes,
// wall-clocks are compared, and per-cell relative errors of cycles, MPKI,
// and speedup-over-baseline are reported as error-bar tables
// (stats.SampledError). The run exits non-zero when the worst |cycles|
// or |speedup| error exceeds errPct (DESIGN.md §10 documents the bounds
// this mode regenerates). The result cache is deliberately not used:
// both lanes must compute, or the wall-clock comparison is a lie. It
// returns the process exit code (cliutil.ExitInterrupted once ctx is
// cancelled), so the scratch store's deferred removal runs on every path.
func runSampleValidate(ctx context.Context, sim *cliutil.SimFlags, errPct float64) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "acic-bench: -sample-validate: "+format+"\n", args...)
		if ctx.Err() != nil {
			return cliutil.ExitInterrupted
		}
		return 1
	}
	sampleSets := sim.SampleSets
	if sampleSets == 0 {
		sampleSets = 8
	}

	// The two suites are independent engines, but workload preparation is
	// sampling-independent (artifact keys carry no sample component), so
	// they share one artifact store — a scratch one when the user did not
	// provide theirs — and the second suite's prepare loads instead of
	// regenerating.
	artifactDir := sim.ArtifactDir
	if artifactDir == "" {
		scratch, err := os.MkdirTemp("", "acic-sample-validate-*")
		if err != nil {
			return fail("%v", err)
		}
		defer os.RemoveAll(scratch)
		artifactDir = scratch
	}

	var lanes [2]*experiments.Suite
	for i, sets := range []int{0, sampleSets} {
		lane := *sim
		lane.ArtifactDir = artifactDir
		lane.CacheDir = ""
		lane.SampleSets = sets
		lanes[i] = lane.NewSuite(ctx)
		if err := lanes[i].CacheError(); err != nil {
			return fail("%v", err)
		}
	}
	full, sampled := lanes[0], lanes[1]

	schemes := append([]string{experiments.Baseline}, experiments.Fig10Schemes...)
	cells := experiments.CrossCells(full.AppNames(), schemes, "fdp")
	if err := full.PrepareAll(full.AppNames()...); err != nil {
		return fail("%v", err)
	}
	if err := sampled.PrepareAll(sampled.AppNames()...); err != nil {
		return fail("%v", err)
	}

	// Both lanes run over warm workloads, so the wall-clocks compare
	// simulation against simulation.
	startFull := time.Now()
	if err := full.Require(cells...); err != nil {
		return fail("full grid: %v", err)
	}
	fullWall := time.Since(startFull)
	startSampled := time.Now()
	if err := sampled.Require(cells...); err != nil {
		return fail("sampled grid: %v", err)
	}
	sampledWall := time.Since(startSampled)

	cyclesErr := stats.NewSampledError("cycles")
	mpkiErr := stats.NewSampledError("MPKI")
	speedupErr := stats.NewSampledError("speedup")
	for _, app := range full.AppNames() {
		fb, err := full.Result(app, experiments.Baseline, "fdp")
		if err != nil {
			return fail("%v", err)
		}
		sb, err := sampled.Result(app, experiments.Baseline, "fdp")
		if err != nil {
			return fail("%v", err)
		}
		for _, scheme := range schemes {
			fr, err := full.Result(app, scheme, "fdp")
			if err != nil {
				return fail("%v", err)
			}
			sr, err := sampled.Result(app, scheme, "fdp")
			if err != nil {
				return fail("%v", err)
			}
			label := app + "/" + scheme
			cyclesErr.Add(label, float64(fr.Cycles), float64(sr.Cycles))
			mpkiErr.Add(label, fr.MPKI(), sr.MPKI())
			speedupErr.Add(label, float64(fb.Cycles)/float64(fr.Cycles), float64(sb.Cycles)/float64(sr.Cycles))
		}
	}

	fmt.Printf("=== sample-validate: %d of %d L1i sets, %d cells (%s × fdp), n=%d\n",
		sampleSets, icache.DefaultSets, len(cells), "baseline+fig10 schemes", full.N)
	// The gated metrics get the per-cell error-bar tables; MPKI — looser
	// by design (DESIGN.md §10) — is summarized only.
	fmt.Print(cyclesErr.Table().String())
	fmt.Print(speedupErr.Table().String())
	fmt.Println(cyclesErr.Summary())
	fmt.Println(mpkiErr.Summary())
	fmt.Println(speedupErr.Summary())
	fmt.Printf("wall-clock: full grid %.2fs, sampled grid %.2fs -> %.1fx\n",
		fullWall.Seconds(), sampledWall.Seconds(), fullWall.Seconds()/sampledWall.Seconds())

	if errPct >= 0 {
		if worstLabel, worst := cyclesErr.Worst(); worst > errPct {
			fmt.Fprintf(os.Stderr, "acic-bench: sampled cycles error %.2f%% (%s) exceeds -sample-err-pct %.1f\n",
				worst, worstLabel, errPct)
			return 1
		}
		if worstLabel, worst := speedupErr.Worst(); worst > errPct {
			fmt.Fprintf(os.Stderr, "acic-bench: sampled speedup error %.2f%% (%s) exceeds -sample-err-pct %.1f\n",
				worst, worstLabel, errPct)
			return 1
		}
	}
	if ctx.Err() != nil {
		return cliutil.ExitInterrupted
	}
	return 0
}

func main() {
	var (
		exp  = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		sim  = cliutil.RegisterRun(flag.CommandLine)
		list = flag.Bool("list", false, "list experiments and exit")

		benchJSON = flag.String("bench-json", "", "distributed-sweep mode: run the full app x scheme grid single-process vs coordinator + 1/2/4 workers over a cold shared store (per-cell results verified identical), write the report to this JSON file and exit")

		sampleValidate = flag.Bool("sample-validate", false, "validate the set-sampled fast mode: run the headline grid full and sampled, print the per-cell error-bar table and wall-clock speedup, and exit non-zero past -sample-err-pct")
		sampleErrPct   = flag.Float64("sample-err-pct", 10, "-sample-validate failure threshold: worst per-cell |cycles error| and |speedup error| must stay within this percentage (negative = never fail)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	sim.RegisterCacheDir(flag.CommandLine)
	flag.Parse()

	if err := sim.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "acic-bench: %v\n", err)
		os.Exit(1)
	}
	if err := sim.InstallFaults(); err != nil {
		fmt.Fprintf(os.Stderr, "acic-bench: -fault-spec: %v\n", err)
		os.Exit(1)
	}
	// SIGINT/SIGTERM cancel at cell boundaries: running cells finish, the
	// stores stay consistent, partial output flushes, and the process
	// exits cliutil.ExitInterrupted. A second signal kills immediately.
	ctx, stopSignals := cliutil.InterruptContext()
	defer stopSignals()

	stopCPUProfile := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acic-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "acic-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		stopCPUProfile = func() { pprof.StopCPUProfile(); f.Close() }
	}
	defer stopCPUProfile()
	writeMemProfile := func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acic-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "acic-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
	}

	if *sampleValidate {
		if code := runSampleValidate(ctx, sim, *sampleErrPct); code != 0 {
			stopCPUProfile()
			os.Exit(code)
		}
		return
	}

	if *benchJSON != "" {
		rep, err := perf.Measure(ctx, sim.N)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acic-bench: %v\n", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(*benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "acic-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("=== distributed sweep: single-process vs coordinator + workers, cold shared store per lane, n=%d\n", rep.N)
		fmt.Println(rep.Host())
		if st := rep.DistributedSweepTable(); st != nil {
			fmt.Print(st)
		}
		fmt.Println(rep.Faults)
		fmt.Printf("wrote %s\n", *benchJSON)
		stopCPUProfile()
		writeMemProfile()
		if rep.Interrupted {
			fmt.Fprintf(os.Stderr, "acic-bench: interrupted — %s holds a partial report\n", *benchJSON)
			os.Exit(cliutil.ExitInterrupted)
		}
		return
	}

	exps := experiments.Registry()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-8s %s\n", e.Slug, e.Desc)
		}
		return
	}

	selected, err := cliutil.Experiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	suite := sim.NewSuite(ctx)
	// CacheError spins up the engine, freezing the suite's configuration.
	if err := suite.CacheError(); err != nil {
		fmt.Fprintf(os.Stderr, "acic-bench: %v\n", err)
		os.Exit(1)
	}
	outcome := cliutil.Render(ctx, "acic-bench", suite, selected, os.Stdout, os.Stderr)
	if sim.Progress {
		computed, fromCache, workloads := suite.Stats()
		fmt.Fprintf(os.Stderr, "computed %d cells, %d from cache, %d workloads prepared\n",
			computed, fromCache, workloads)
		for _, st := range suite.PrepareStats() {
			fmt.Fprintf(os.Stderr, "prepare %-8s %d regenerated, %d from artifact store\n",
				st.Stage, st.Computed, st.FromStore)
		}
		if fs := suite.FaultStats(); sim.FaultSpec != "" || fs.Any() {
			fmt.Fprintln(os.Stderr, fs)
		}
		if outcome.Interrupted {
			fmt.Fprintln(os.Stderr, "interrupted: true")
		}
	}
	stopCPUProfile()
	writeMemProfile()
	if code := outcome.ExitCode("acic-bench", os.Stderr); code != 0 {
		os.Exit(code)
	}
}
