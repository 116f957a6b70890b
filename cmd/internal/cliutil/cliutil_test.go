package cliutil

import (
	"context"
	"flag"
	"reflect"
	"strings"
	"testing"

	"acic/internal/experiments"
	"acic/internal/faults"
)

// TestValidateFaultSpec: the shared Validate rejects a malformed
// -fault-spec up front, so every CLI fails fast with the same message
// instead of installing a half-parsed injector.
func TestValidateFaultSpec(t *testing.T) {
	f := &SimFlags{FaultSpec: "io-err:p=0.01"}
	if err := f.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	f.FaultSpec = "no-such-class:p=1"
	err := f.Validate()
	if err == nil || !strings.Contains(err.Error(), "-fault-spec") {
		t.Errorf("bad spec error = %v, want a -fault-spec error", err)
	}
}

// TestRegisterFaultSpecEnvDefault: ACIC_FAULT_SPEC seeds the flag default
// so CI tiers can fault every invocation without editing them.
func TestRegisterFaultSpecEnvDefault(t *testing.T) {
	t.Setenv("ACIC_FAULT_SPEC", "panic-cell:every=97")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := RegisterSim(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.FaultSpec != "panic-cell:every=97" {
		t.Errorf("FaultSpec = %q, want the env default", f.FaultSpec)
	}
}

// TestInstallFaults round-trips install and uninstall through the flag
// layer.
func TestInstallFaults(t *testing.T) {
	f := &SimFlags{FaultSpec: "io-err:p=1"}
	if err := f.InstallFaults(); err != nil {
		t.Fatal(err)
	}
	defer faults.Install("")
	if !faults.FailIO("test", "k") {
		t.Error("installed p=1 io-err spec did not fire")
	}
	f.FaultSpec = ""
	if err := f.InstallFaults(); err != nil {
		t.Fatal(err)
	}
	if faults.FailIO("test", "k") {
		t.Error("empty spec must uninstall the injector")
	}
}

// TestInterruptContext: the context is live until cancelled and reports
// context.Canceled after, matching what Suite.Context expects.
func TestInterruptContext(t *testing.T) {
	ctx, cancel := InterruptContext()
	if ctx.Err() != nil {
		t.Fatalf("fresh interrupt context already done: %v", ctx.Err())
	}
	cancel()
	<-ctx.Done()
	if ctx.Err() != context.Canceled {
		t.Errorf("ctx.Err() = %v, want context.Canceled", ctx.Err())
	}
}

// TestNewSuite: the flags fill the one experiments.Config, and the
// flags→Suite constructor carries it whole, with the context and the
// -progress printer.
func TestNewSuite(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := RegisterRun(fs)
	f.RegisterCacheDir(fs)
	if err := fs.Parse([]string{"-workers", "3", "-n", "5000", "-apps", "sibench,tpcc",
		"-artifact-dir", "store", "-cache-dir", "results", "-sample-sets", "8", "-progress"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	want := experiments.Config{N: 5000, Apps: []string{"sibench", "tpcc"}, SampleSets: 8,
		Workers: 3, CacheDir: "results", ArtifactDir: "store"}
	ctx := context.Background()
	s := f.NewSuite(ctx)
	if !reflect.DeepEqual(s.Config, want) || s.Context != ctx || s.Progress == nil {
		t.Errorf("NewSuite = %+v, want Config %+v, the context and a progress printer", s, want)
	}
	if s := (&SimFlags{}).NewSuite(ctx); s.Progress != nil || s.Apps != nil {
		t.Errorf("without -progress and -apps: Progress set %v, Apps %v", s.Progress != nil, s.Apps)
	}
}

// TestValidateSampling: sampling errors surface from Validate, through
// experiments.SampleConfigFor, before any suite is built.
func TestValidateSampling(t *testing.T) {
	for _, sets := range []int{3, 128, -1} {
		f := &SimFlags{Config: experiments.Config{SampleSets: sets}}
		if err := f.Validate(); err == nil {
			t.Errorf("-sample-sets %d: Validate accepted it", sets)
		}
	}
	for _, sets := range []int{0, 8, 64} {
		f := &SimFlags{Config: experiments.Config{SampleSets: sets}}
		if err := f.Validate(); err != nil {
			t.Errorf("-sample-sets %d: %v", sets, err)
		}
	}
}
