// Package cliutil deduplicates the engine/storage flag plumbing shared by
// the simulation CLIs (acic-bench, acic-sim, acic-serve, acic-coord,
// acic-trace warm): the worker pool width, the sampling mode, and the two persistent stores — and builds the one
// experiments.Suite those flags describe (SimFlags.NewSuite).
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"acic/internal/experiments"
	"acic/internal/faults"
)

// ExitInterrupted is the exit code for runs cancelled by SIGINT/SIGTERM
// (128 + SIGINT, the shell convention): partial output was flushed, the
// run did not complete.
const ExitInterrupted = 130

// InterruptContext returns a context cancelled on the first SIGINT or
// SIGTERM. The CLIs thread it to experiments.Suite.Context / perf.Config.
// Context, which drain at cell boundaries — in-flight cells finish, the
// stores stay consistent, partial output flushes. A second signal kills
// the process via the restored default disposition.
func InterruptContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// SimFlags are the shared engine/storage knobs after parsing.
type SimFlags struct {
	Workers      int
	ArtifactDir  string
	SampleSets   int
	SampleOffset int
	FaultSpec    string
}

// RegisterSim declares the shared simulation flags on fs (usually
// flag.CommandLine) and returns the destination struct, valid after
// fs.Parse.
func RegisterSim(fs *flag.FlagSet) *SimFlags {
	f := &SimFlags{}
	fs.IntVar(&f.Workers, "workers", 0, "simulation worker pool size (0 = ACIC_WORKERS or GOMAXPROCS)")
	fs.IntVar(&f.SampleSets, "sample-sets", 0, "set-sampled fast mode: simulate only this many of the 64 L1i sets (SDM-style sampling, statistics extrapolated; power of two; 0 = full simulation, the byte-identical reference)")
	fs.IntVar(&f.SampleOffset, "sample-offset", 0, "sampled set constituency to simulate, in [1,64/sample-sets) (with -sample-sets; 0 = derive per workload from the trace digest — constituency 0 is alignment-biased and never used)")
	RegisterArtifactDir(fs, &f.ArtifactDir)
	RegisterFaultSpec(fs, &f.FaultSpec)
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

// RegisterCacheDir declares -cache-dir on fs. It is separate from
// RegisterSim because only tools whose cells are plain (uninstrumented)
// results can reuse cached entries — acic-bench can, acic-sim cannot:
// Suite.Instrument never sees a cell answered from the cache.
func RegisterCacheDir(fs *flag.FlagSet) *string {
	return fs.String("cache-dir", os.Getenv("ACIC_CACHE_DIR"), "persistent result cache directory (empty = disabled)")
}

// RegisterArtifactDir declares -artifact-dir on fs (shared with the
// acic-trace subcommands, which take none of the other simulation flags).
func RegisterArtifactDir(fs *flag.FlagSet, dst *string) {
	fs.StringVar(dst, "artifact-dir", os.Getenv("ACIC_ARTIFACT_DIR"),
		"persistent workload artifact store: prepared traces, annotated programs, successor arrays, and data-latency timelines are written once and reused by every later run (empty = disabled)")
}

// Validate checks the parsed flag values.
func (f *SimFlags) Validate() error {
	if f.SampleOffset < 0 {
		return fmt.Errorf("-sample-offset must be >= 0, got %d", f.SampleOffset)
	}
	if _, err := experiments.SampleConfigFor(f.SampleSets, f.SampleOffset, ""); err != nil {
		return err
	}
	if err := faults.Validate(f.FaultSpec); err != nil {
		return fmt.Errorf("-fault-spec: %w", err)
	}
	return nil
}

// NewSuite builds the suite the parsed flags describe over n-instruction
// workloads (0 = experiments.DefaultTraceLen): the worker pool, artifact
// store and sampling mode, with
// ctx as its cancellation context. Callers add what only they configure
// (Apps, CacheDir, Progress, Instrument) before the first use. Call after
// Validate.
func (f *SimFlags) NewSuite(ctx context.Context, n int) *experiments.Suite {
	s := experiments.NewSuite(n)
	s.Context = ctx
	s.Workers = f.Workers
	s.ArtifactDir = f.ArtifactDir
	s.SampleSets = f.SampleSets
	s.SampleOffset = f.SampleOffset
	return s
}
