package cliutil

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"acic/internal/experiments"
	"acic/internal/icache"
)

// Experiments resolves an -exp value, "all" or a comma-separated list of
// registry slugs, to the experiments to render, in registry order. The
// names resolve through the registry's slug lookup, the same identifiers
// /v1/experiments serves, so the CLIs and the API cannot drift. Every
// unknown name is reported in one error, sorted.
func Experiments(spec string) ([]experiments.Experiment, error) {
	all := experiments.Registry()
	if spec == "all" {
		return all, nil
	}
	want := map[string]bool{}
	var unknown []string
	for _, w := range strings.Split(spec, ",") {
		w = strings.TrimSpace(w)
		if _, ok := experiments.LookupExperiment(w); !ok {
			unknown = append(unknown, w)
			continue
		}
		want[w] = true
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiments: %s (use acic-bench -list)", strings.Join(unknown, ", "))
	}
	var exps []experiments.Experiment
	for _, e := range all {
		if want[e.Slug] {
			exps = append(exps, e)
		}
	}
	return exps, nil
}

// Outcome is what a Render pass leaves for the exit code.
type Outcome struct {
	Failed      []string // slugs whose render failed, in run order
	Interrupted bool     // ctx was cancelled: the output is partial
}

// Render runs exps on s in order, printing each as "=== slug: desc (Ns)"
// and its body to stdout, after a banner when s runs set-sampled. One
// bad figure does not cost the rest of the run: a failure is reported on
// stderr as "prog: slug: err" and the remaining experiments still execute
// (the engine has already contained the failure to the offending cells).
// Once ctx is cancelled the loop stops instead, and everything printed
// so far is complete.
func Render(ctx context.Context, prog string, s *experiments.Suite, exps []experiments.Experiment, stdout, stderr io.Writer) Outcome {
	if s.SampleSets > 0 {
		fmt.Fprintf(stdout, "set-sampled fast mode: %d of %d L1i sets; statistics extrapolated (error bars: DESIGN.md §10, acic-bench -sample-validate)\n",
			s.SampleSets, icache.DefaultSets)
	}
	var o Outcome
	for _, e := range exps {
		if ctx.Err() != nil {
			o.Interrupted = true
			break
		}
		start := time.Now()
		out, err := e.Run(s)
		if err != nil {
			if ctx.Err() != nil {
				o.Interrupted = true
				break
			}
			o.Failed = append(o.Failed, e.Slug)
			fmt.Fprintf(stderr, "%s: %s: %v\n", prog, e.Slug, err)
			continue
		}
		fmt.Fprintf(stdout, "=== %s: %s (%.1fs)\n%s\n", e.Slug, e.Desc, time.Since(start).Seconds(), out)
	}
	return o
}

// ExitCode reports o on stderr and returns the process exit code:
// ExitInterrupted after an interrupt, 1 naming the failed experiments,
// 0 otherwise.
func (o Outcome) ExitCode(prog string, stderr io.Writer) int {
	switch {
	case o.Interrupted:
		fmt.Fprintf(stderr, "%s: interrupted — output above is partial\n", prog)
		return ExitInterrupted
	case len(o.Failed) > 0:
		fmt.Fprintf(stderr, "%s: %d experiment(s) failed: %s\n", prog, len(o.Failed), strings.Join(o.Failed, ", "))
		return 1
	}
	return 0
}
