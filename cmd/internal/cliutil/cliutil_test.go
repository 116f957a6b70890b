package cliutil

import (
	"context"
	"flag"
	"strings"
	"testing"

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

// TestNewSuite: the one flags→Suite constructor carries every shared
// engine knob.
func TestNewSuite(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := RegisterSim(fs)
	if err := fs.Parse([]string{"-workers", "3",
		"-artifact-dir", "store", "-sample-sets", "8", "-sample-offset", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := f.NewSuite(ctx, 5000)
	if s.N != 5000 || s.Context != ctx || s.Workers != 3 || s.ArtifactDir != "store" ||
		s.SampleSets != 8 || s.SampleOffset != 2 {
		t.Errorf("NewSuite = %+v", s)
	}
}

// TestValidateSampling: sampling errors surface from Validate, through
// experiments.SampleConfigFor, before any suite is built.
func TestValidateSampling(t *testing.T) {
	for _, f := range []SimFlags{
		{SampleSets: 3},
		{SampleSets: 128},
		{SampleSets: 8, SampleOffset: 8},
		{SampleOffset: -1},
	} {
		if err := f.Validate(); err == nil {
			t.Errorf("%+v: Validate accepted it", f)
		}
	}
}
