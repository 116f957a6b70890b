// Command perfbench is the repository's end-to-end benchmark. It drives the
// acic packages and the acic-serve daemon from outside, timing calls into
// their public functions, and prints one JSON result line:
//
//	perfbench --workload figures-warm --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for the one-line reasons):
//
//	figures-warm       render all experiments.Registry() entries over a
//	                   warm artifact store (the user's acic-bench -exp all)
//	prepare-cold-long  cold Pipeline.Warm of the 15 profiles at 4x N
//	serve-replay       a seeded request script against acic-serve
//
// With --trace 0 the result carries the end-to-end metrics (wall_s,
// setup_s, peak_mem_mb) of the named workload: its timed phase runs in a
// child process, repeated for --seconds (at least -min-reps times), and
// every metric is the median over the repetitions. With --trace 1 the run
// is the traced run instead: every layer is replayed component by
// component, spans are recorded around each public call, and the result
// carries every per-layer metric (spans are written under -work).
//
// Run it through perfbench/run.sh from the repository root, which builds
// this program and acic-serve first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// minReps is how many times one run repeats its timed phase, at least;
// serveRequests is serve-replay's count of warm queries and of
// revalidations. The smoke test lowers both through config.
const (
	minReps       = 3
	serveRequests = 20_000
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	n        int    // figures/serve trace length; prepare-cold-long runs 4n
	requests int    // serve-replay warm queries and revalidations, each
	minReps  int    // timed-phase repetitions per run, at least
	work     string // scratch root for stores and span files
	serveBin string // acic-serve binary
	workers  int    // GOMAXPROCS and pool width of every timed phase
}

func main() {
	clearACICEnv()
	var (
		cfg   config
		trace int
		phase phaseArgs
	)
	flag.StringVar(&cfg.workload, "workload", "", "figures-warm, prepare-cold-long or serve-replay")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: request order (serve-replay), profile order (prepare-cold-long)")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measure for about this many seconds (timed phases repeat until then)")
	flag.IntVar(&trace, "trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
	flag.IntVar(&cfg.n, "n", 400_000, "trace length in instructions for figures-warm and serve-replay (prepare-cold-long uses 4x)")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "perfbench"), "scratch directory (stores, span files)")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "acic-serve binary (required for serve-replay)")
	flag.StringVar(&phase.name, "phase", "", "internal: run one timed phase in this process and print its result")
	flag.StringVar(&phase.store, "store", "", "internal: artifact store of the phase")
	flag.BoolVar(&phase.trace, "phase-trace", false, "internal: record spans in the phase")
	flag.StringVar(&phase.run, "run-id", "", "internal: run id stamped on the phase's spans")
	flag.IntVar(&phase.workers, "phase-workers", 0, "internal: pool width of the phase (0 = the run's)")
	flag.Parse()

	cfg.requests, cfg.minReps = serveRequests, minReps
	cfg.workers = min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(cfg.workers)
	cfg.trace = trace != 0

	if phase.name != "" {
		phase.n, phase.seed = cfg.n, cfg.seed
		if phase.workers <= 0 {
			phase.workers = cfg.workers
		}
		if err := runPhase(phase, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: phase %s: %v\n", phase.name, err)
			os.Exit(1)
		}
		return
	}

	start, ticks := time.Now(), cpuTicks()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	host := describeHost(cfg, ticks)
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)
	for _, e := range res.Errors {
		fmt.Printf("check failed: %s\n", e)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s trace=%v seed=%d done in %.1fs\n",
		cfg.workload, cfg.trace, cfg.seed, time.Since(start).Seconds())
	line, err := json.Marshal(res.report())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation in a private scratch directory under
// cfg.work, removed afterwards.
func run(cfg config) (*result, error) {
	switch cfg.workload {
	case "figures-warm", "prepare-cold-long", "serve-replay":
	default:
		return nil, fmt.Errorf("unknown --workload %q (figures-warm, prepare-cold-long, serve-replay)", cfg.workload)
	}
	if cfg.n <= 0 || cfg.seconds <= 0 || cfg.minReps <= 0 || cfg.requests <= 0 {
		return nil, fmt.Errorf("-n and --seconds must be positive")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{cfg: cfg, dir: dir, res: &result{}, tr: newTracer(cfg.trace, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano()))}
	switch {
	case cfg.trace:
		err = b.traced()
	case cfg.workload == "figures-warm":
		err = b.figuresWarm()
	case cfg.workload == "prepare-cold-long":
		err = b.prepareColdLong()
	case cfg.workload == "serve-replay":
		err = b.serveReplay()
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		path := filepath.Join(cfg.work, "spans", b.tr.run+".json")
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", b.tr.len(), path)
	}
	return b.res, nil
}

// bench is the state of one invocation.
type bench struct {
	cfg config
	dir string // private scratch directory
	res *result
	tr  *tracer
	seq int // scratch-name counter
}

// scratch returns a fresh, not yet existing path under the run directory.
func (b *bench) scratch(prefix string) string {
	b.seq++
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d", prefix, b.seq))
}

// reps reports whether another timed repetition is due: at least
// -min-reps, then until --seconds have passed since start.
func (b *bench) reps(done int, start time.Time) bool {
	return done < b.cfg.minReps || time.Since(start) < time.Duration(b.cfg.seconds)*time.Second
}

// endToEnd collects the repetitions of one run's timed phase; every
// end-to-end metric is their median.
type endToEnd struct{ walls, setups, peaks []float64 }

// add records one repetition and reports it on standard error, with the
// peak of the whole phase process (checks included) beside the timed
// phase's.
func (e *endToEnd) add(setup time.Duration, wallNS, peakKB, processKB int64) {
	fmt.Fprintf(os.Stderr, "perfbench: rep %d: setup %.4fs wall %.3fs peak %.0fMB (process %.0fMB)\n",
		len(e.walls), setup.Seconds(), seconds(wallNS), float64(peakKB)/1024, float64(processKB)/1024)
	e.setups = append(e.setups, setup.Seconds())
	e.walls = append(e.walls, seconds(wallNS))
	e.peaks = append(e.peaks, float64(peakKB)/1024)
}

func (e *endToEnd) report(r *result) {
	r.set("wall_s", "s", median(e.walls))
	r.set("setup_s", "s", median(e.setups))
	r.set("peak_mem_mb", "MB", median(e.peaks))
}

// clearACICEnv removes every ACIC_* variable from the environment before
// anything reads it. The packages, the phase processes and acic-serve take
// defaults from such variables (a result cache directory, a fault spec,
// the worker count, the LLC size); the benchmark measures the defaults,
// so a cache directory left set in the shell cannot turn a cold phase
// into cache reads.
func clearACICEnv() {
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "ACIC_") {
			os.Unsetenv(name)
		}
	}
}
