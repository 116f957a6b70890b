package experiments

import (
	"fmt"

	"acic/internal/faults"
)

// FaultStats aggregates the suite's fault handling: what the injector
// fired (zero without -fault-spec) and what the engine absorbed —
// retries and quarantined store entries. Results themselves stay
// byte-identical to a fault-free run, which is the invariant CI's fault
// smoke pins.
type FaultStats struct {
	// Spec is the installed fault spec ("" = no injection).
	Spec string `json:"spec,omitempty"`
	// InjectedIOErrs / InjectedCorruptions / InjectedPanics /
	// InjectedNetErrs count the faults the injector fired process-wide.
	InjectedIOErrs      int64 `json:"injected_io_errs"`
	InjectedCorruptions int64 `json:"injected_corruptions"`
	InjectedPanics      int64 `json:"injected_panics"`
	InjectedNetErrs     int64 `json:"injected_net_errs"`
	// Retries counts extra compute attempts spent recovering transient
	// failures across the result group and the pipeline.
	Retries int64 `json:"retries"`
	// Quarantined counts undecodable store entries moved to quarantine/.
	Quarantined int64 `json:"quarantined"`
}

// Any reports whether any fault activity — injected or absorbed — was
// recorded.
func (f FaultStats) Any() bool {
	return f.InjectedIOErrs != 0 || f.InjectedCorruptions != 0 || f.InjectedPanics != 0 ||
		f.InjectedNetErrs != 0 || f.Retries != 0 || f.Quarantined != 0
}

// Recovered totals the recovery work the engine spent absorbing faults
// — retries and quarantines. acic-serve charges this total against per-request fault
// budgets: a request whose service consumed excessive recovery work is
// refused (CodeFaultBudget) rather than allowed to mask a degrading
// store or injector behind ever-slower answers.
func (f FaultStats) Recovered() int64 {
	return f.Retries + f.Quarantined
}

// String renders the single-line summary -progress and the bench tier
// print, e.g.
//
//	faults: injected 12 io / 3 corrupt / 5 panic / 4 net; recovered 5 retries, 3 quarantined
func (f FaultStats) String() string {
	return fmt.Sprintf("faults: injected %d io / %d corrupt / %d panic / %d net; recovered %d retries, %d quarantined",
		f.InjectedIOErrs, f.InjectedCorruptions, f.InjectedPanics, f.InjectedNetErrs,
		f.Retries, f.Quarantined)
}

// FaultStats reports the suite's fault handling so far. Injector counts
// are process-wide (the injector is installed globally); engine counts
// are this suite's.
func (s *Suite) FaultStats() FaultStats {
	s.init()
	snap := faults.Snapshot()
	fs := FaultStats{
		Spec:                snap.Spec,
		InjectedIOErrs:      snap.IOErrs,
		InjectedCorruptions: snap.Corruptions,
		InjectedPanics:      snap.Panics,
		InjectedNetErrs:     snap.NetErrs,
		Retries:             s.results.Retries() + s.pipeline.Retries(),
		Quarantined:         s.pipeline.Quarantined(),
	}
	if s.resultStore != nil {
		fs.Quarantined += s.resultStore.Quarantined()
	}
	return fs
}
