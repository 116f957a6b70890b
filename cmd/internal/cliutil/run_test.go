package cliutil

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"acic/internal/experiments"
)

func slugs(exps []experiments.Experiment) []string {
	var s []string
	for _, e := range exps {
		s = append(s, e.Slug)
	}
	return s
}

// TestExperiments pins -exp selection: "all" is the whole registry, a
// list renders in registry order whatever order it names, and every
// unknown name is reported together, sorted, with nothing selected.
func TestExperiments(t *testing.T) {
	all, err := Experiments("all")
	if err != nil || !reflect.DeepEqual(slugs(all), experiments.ExperimentSlugs()) {
		t.Errorf("all = %v, %v; want the registry", slugs(all), err)
	}
	got, err := Experiments("fig11, table3,fig10")
	if err != nil || !reflect.DeepEqual(slugs(got), []string{"table3", "fig10", "fig11"}) {
		t.Errorf("list = %v, %v; want registry order table3, fig10, fig11", slugs(got), err)
	}
	got, err = Experiments("zz,fig10,all,aa")
	if err == nil || got != nil {
		t.Fatalf("mixed list = %v, %v; want an error and nothing selected", slugs(got), err)
	}
	if want := "unknown experiments: aa, all, zz (use acic-bench -list)"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

// TestRender pins the render loop both CLIs share: the "=== slug: desc
// (Ns)" header and body on stdout, a failure reported on stderr without
// stopping the run, and an interrupt stopping it with a partial outcome.
func TestRender(t *testing.T) {
	ok := func(slug, body string) experiments.Experiment {
		return experiments.Experiment{Slug: slug, Desc: slug + " desc",
			Run: func(*experiments.Suite) (string, error) { return body, nil }}
	}
	bad := experiments.Experiment{Slug: "bad", Desc: "fails",
		Run: func(*experiments.Suite) (string, error) { return "", errors.New("boom") }}

	var stdout, stderr bytes.Buffer
	o := Render(context.Background(), "prog", &experiments.Suite{}, []experiments.Experiment{ok("a", "A"), bad, ok("b", "B")}, &stdout, &stderr)
	if re := regexp.MustCompile(`^=== a: a desc \([0-9]+\.[0-9]s\)\nA\n=== b: b desc \([0-9]+\.[0-9]s\)\nB\n$`); !re.MatchString(stdout.String()) {
		t.Errorf("stdout %q", stdout.String())
	}
	if stderr.String() != "prog: bad: boom\n" {
		t.Errorf("stderr %q", stderr.String())
	}
	if !reflect.DeepEqual(o, Outcome{Failed: []string{"bad"}}) {
		t.Errorf("outcome %+v", o)
	}
	stderr.Reset()
	if code := o.ExitCode("prog", &stderr); code != 1 || stderr.String() != "prog: 1 experiment(s) failed: bad\n" {
		t.Errorf("ExitCode = %d, stderr %q", code, stderr.String())
	}

	// An experiment cut short by the interrupt is not a failure: the loop
	// stops there and nothing after it runs.
	ctx, cancel := context.WithCancel(context.Background())
	cut := experiments.Experiment{Slug: "cut", Run: func(*experiments.Suite) (string, error) {
		cancel()
		return "", context.Canceled
	}}
	stdout.Reset()
	stderr.Reset()
	o = Render(ctx, "prog", &experiments.Suite{}, []experiments.Experiment{ok("a", "A"), cut, ok("b", "B")}, &stdout, &stderr)
	if !o.Interrupted || o.Failed != nil || strings.Contains(stdout.String(), "=== b") || stderr.Len() != 0 {
		t.Errorf("interrupted run: outcome %+v, stdout %q, stderr %q", o, stdout.String(), stderr.String())
	}
	if code := o.ExitCode("prog", &stderr); code != ExitInterrupted || stderr.String() != "prog: interrupted — output above is partial\n" {
		t.Errorf("ExitCode = %d, stderr %q", code, stderr.String())
	}
	// Cancelled before the first experiment: nothing runs.
	stdout.Reset()
	if o := Render(ctx, "prog", &experiments.Suite{}, []experiments.Experiment{ok("a", "A")}, &stdout, &stderr); !o.Interrupted || stdout.Len() != 0 {
		t.Errorf("pre-cancelled run: outcome %+v, stdout %q", o, stdout.String())
	}
	if code := (Outcome{}).ExitCode("prog", &stderr); code != 0 {
		t.Errorf("clean run ExitCode = %d", code)
	}

	// A set-sampled suite's render opens with the sampling banner.
	stdout.Reset()
	sampled := &experiments.Suite{Config: experiments.Config{SampleSets: 8}}
	Render(context.Background(), "prog", sampled, []experiments.Experiment{ok("a", "A")}, &stdout, &stderr)
	if !strings.HasPrefix(stdout.String(), "set-sampled fast mode: 8 of 64 L1i sets;") {
		t.Errorf("sampled render stdout %q", stdout.String())
	}
}
