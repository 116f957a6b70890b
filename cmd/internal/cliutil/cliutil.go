// Package cliutil holds what the simulation CLIs (acic-bench, acic-sim,
// acic-serve, acic-coord, acic-worker, acic-trace) share: the flags that
// fill one experiments.Config (trace length, apps, worker pool width,
// sampling mode, the two persistent stores) and build the Suite it
// describes (SimFlags.NewSuite), fault injection, interrupt handling, and
// the one experiment runner behind acic-bench and acic-coord
// (Experiments, Render).
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"acic/internal/experiments"
	"acic/internal/faults"
)

// ExitInterrupted is the exit code for runs cancelled by SIGINT/SIGTERM
// (128 + SIGINT, the shell convention): partial output was flushed, the
// run did not complete.
const ExitInterrupted = 130

// InterruptContext returns a context cancelled on the first SIGINT or
// SIGTERM. The CLIs thread it to experiments.Suite.Context and
// perf.Measure, which drain at cell boundaries — in-flight cells finish, the
// stores stay consistent, partial output flushes. A second signal kills
// the process via the restored default disposition.
func InterruptContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// SimFlags are the shared simulation flags after parsing: the run's
// experiments.Config, which the flags fill in place, plus what is not a
// Suite field.
type SimFlags struct {
	experiments.Config
	// FaultSpec is -fault-spec, installed process-wide by InstallFaults.
	FaultSpec string
	// Progress is -progress (RegisterRun): NewSuite then reports each
	// completed cell on stderr.
	Progress bool
	// apps is -apps as typed; Validate splits it into Config.Apps.
	apps string
}

// RegisterSim declares the shared simulation flags on fs (usually
// flag.CommandLine) and returns the destination struct, valid after
// fs.Parse.
func RegisterSim(fs *flag.FlagSet) *SimFlags {
	f := &SimFlags{}
	fs.IntVar(&f.Workers, "workers", 0, "simulation worker pool size (0 = ACIC_WORKERS or GOMAXPROCS)")
	fs.IntVar(&f.SampleSets, "sample-sets", 0, "set-sampled fast mode: simulate only this many of the 64 L1i sets (SDM-style sampling, statistics extrapolated; power of two; 0 = full simulation, the byte-identical reference)")
	RegisterArtifactDir(fs, &f.ArtifactDir)
	RegisterFaultSpec(fs, &f.FaultSpec)
	return f
}

// RegisterRun declares the shared simulation flags plus the grid flags
// every experiment-running CLI (acic-bench, acic-serve, acic-coord)
// takes: -n, -apps and -progress. acic-sim registers its own -n, with
// its own default, on the returned Config.
func RegisterRun(fs *flag.FlagSet) *SimFlags {
	f := RegisterSim(fs)
	fs.IntVar(&f.N, "n", 0, "trace length in instructions (0 = ACIC_BENCH_N or 400000)")
	fs.StringVar(&f.apps, "apps", "", "restrict datacenter apps (comma-separated)")
	fs.BoolVar(&f.Progress, "progress", false, "report per-cell progress on stderr")
	return f
}

// RegisterFaultSpec declares -fault-spec on fs (shared with acic-trace
// warm). The default comes from ACIC_FAULT_SPEC so CI can fault a whole
// tier without editing invocations.
func RegisterFaultSpec(fs *flag.FlagSet, dst *string) {
	fs.StringVar(dst, "fault-spec", os.Getenv("ACIC_FAULT_SPEC"),
		"deterministic fault injection spec, e.g. \"io-err:p=0.01;corrupt-artifact:p=0.005;panic-cell:every=97;net-err:p=0.01;seed=1\" — injects store I/O errors, artifact bit flips, compute panics, and (for remote stores and the coordinator protocol) network errors that the engine must absorb; results stay byte-identical to a fault-free run (empty = no injection; default from ACIC_FAULT_SPEC)")
}

// InstallFaults installs the parsed -fault-spec process-wide (a no-op
// when empty). Call after Validate; the spec was already syntax-checked
// there.
func (f *SimFlags) InstallFaults() error {
	return faults.Install(f.FaultSpec)
}

// InstallFaultSpec validates and installs a standalone -fault-spec value,
// for CLIs (acic-worker) that register only the fault flag rather than
// the whole SimFlags set.
func InstallFaultSpec(spec string) error {
	return faults.Install(spec)
}

// RegisterCacheDir declares -cache-dir on fs, filling f.CacheDir. It is
// separate from RegisterSim because only tools whose cells are plain
// (uninstrumented) results can reuse cached entries — acic-bench can,
// acic-sim cannot: Suite.Instrument never sees a cell answered from the
// cache.
func (f *SimFlags) RegisterCacheDir(fs *flag.FlagSet) {
	fs.StringVar(&f.CacheDir, "cache-dir", os.Getenv("ACIC_CACHE_DIR"), "persistent result cache directory (empty = disabled)")
}

// RegisterArtifactDir declares -artifact-dir on fs (shared with the
// acic-trace subcommands, which take none of the other simulation flags).
func RegisterArtifactDir(fs *flag.FlagSet, dst *string) {
	fs.StringVar(dst, "artifact-dir", os.Getenv("ACIC_ARTIFACT_DIR"),
		"persistent workload artifact store: prepared traces, annotated programs, successor arrays, and data-latency timelines are written once and reused by every later run (empty = disabled)")
}

// Validate checks the parsed flag values and splits -apps into
// Config.Apps.
func (f *SimFlags) Validate() error {
	if f.apps != "" {
		f.Apps = strings.Split(f.apps, ",")
	}
	if _, err := experiments.SampleConfigFor(f.SampleSets, ""); err != nil {
		return err
	}
	if err := faults.Validate(f.FaultSpec); err != nil {
		return fmt.Errorf("-fault-spec: %w", err)
	}
	return nil
}

// NewSuite builds the suite the parsed flags describe, with ctx as its
// cancellation context and, under -progress, a per-cell progress line on
// stderr. Callers add what only they configure (Remote, Instrument)
// before the first use. Call after Validate.
func (f *SimFlags) NewSuite(ctx context.Context) *experiments.Suite {
	s := &experiments.Suite{Config: f.Config, Context: ctx}
	if f.Progress {
		s.Progress = func(done, total int, label string) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, label)
		}
	}
	return s
}
