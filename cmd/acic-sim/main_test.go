package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"acic/internal/core"
	"acic/internal/experiments"
	"acic/internal/faults"
)

// injectedPanics matches a FaultStats line reporting at least one panic.
var injectedPanics = regexp.MustCompile(`(?m)^faults: injected .* / [1-9][0-9]* panic /`)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current output")

// goldenArgs is the pinned probe every golden case runs: a repeated
// scheme exercises the listed-order rendering and the per-listing ACIC
// notes.
var goldenArgs = []string{"-workload", "web-search", "-schemes", "lru,acic,opt,acic", "-n", "100000"}

// TestGolden pins acic-sim's stdout byte for byte. Clean and
// fault-injected runs must print the same report (one golden); the
// set-sampled lane differs only in its banner and its extrapolated rows.
// The clean case keeps the name "gang-off" from when a gang lane existed:
// it pins the per-cell path, which is now the only one.
func TestGolden(t *testing.T) {
	t.Cleanup(func() { faults.Install("") })
	cases := []struct {
		name, golden string
		args         []string
	}{
		{"gang-off", "web-search.golden", nil},
		{"sampled", "web-search-sampled.golden", []string{"-sample-sets", "8"}},
		{"faults", "web-search.golden", []string{"-fault-spec", "panic-cell:every=2;seed=3"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := append(append([]string{}, goldenArgs...), c.args...)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			path := filepath.Join("testdata", c.golden)
			if *update && c.name != "faults" {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from %s:\n--- got\n%s--- want\n%s", path, stdout.String(), want)
			}
			// The recovery counters reach stderr whenever a fault spec is
			// set; a silent injector would make the faults case test nothing.
			if c.name == "faults" && !injectedPanics.MatchString(stderr.String()) {
				t.Errorf("no injected panics reported on stderr:\n%s", stderr.String())
			}
		})
	}
}

// TestUsageErrors: bad input exits non-zero with a message, no panic.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload", "-n", "1000"},
		{"-workload", "web-search", "-schemes", "no-such-scheme", "-n", "20000"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0, want non-zero", args)
		}
		if stderr.Len() == 0 {
			t.Errorf("%v: no diagnostic on stderr", args)
		}
	}
}

// TestACICNoteDenominators: the note's oracle percentages divide by the
// number of decisions, so one decision the oracle agrees with scores
// 100% rather than being biased low.
func TestACICNoteDenominators(t *testing.T) {
	w := &experiments.Workload{Blocks: []uint64{1, 2, 1}}
	sub, err := experiments.NewScheme("acic", w)
	if err != nil {
		t.Fatal(err)
	}
	// After access 0, block 2 returns first: rejecting victim 1 is ideal.
	decisions := []core.Decision{{Victim: 1, Contender: 2, AccessIdx: 0, Admitted: false}}
	note := acicNote(w, "acic", sub, &decisions)
	if !strings.Contains(note, "ideal-admit=0.0% accuracy=100.0% ceiling=100.0%") {
		t.Errorf("note = %q", note)
	}
}
