package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// smokeN is the trace length of the smoke test; figureDigests holds its
// digest too.
const smokeN = 20_000

// TestMain lets the test binary stand in for the benchmark binary: the
// benchmark re-executes itself with -phase to run timed phases.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "-phase") {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

// TestSmoke runs every workload and every traced run at a tiny trace
// length and checks that each reports exactly the metrics BENCHMARK.json
// names for its mode, with matching units, and no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds acic-serve and runs every workload")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	endToEnd, perLayer := units(bf.EndToEnd), units(bf.PerLayer)

	serveBin := filepath.Join(t.TempDir(), "acic-serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, "acic/cmd/acic-serve").CombinedOutput(); err != nil {
		t.Fatalf("build acic-serve: %v\n%s", err, out)
	}
	for _, traced := range []bool{false, true} {
		for _, w := range bf.Workload {
			name := w.Name
			want := endToEnd
			if traced {
				name += "/traced"
				want = perLayer
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(config{workload: w.Name, seed: 7, seconds: 1, trace: traced, n: smokeN,
					requests: 300, minReps: 1, work: t.TempDir(), serveBin: serveBin, workers: min(2, runtime.NumCPU())})
				if err != nil {
					t.Fatal(err)
				}
				rep := res.report()
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, res.Errors)
				}
				for m, unit := range want {
					got, ok := rep.Metrics[m]
					if !ok {
						t.Errorf("metric %s not reported", m)
					} else if got.Unit != unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m, got.Unit, unit)
					}
				}
				for m := range rep.Metrics {
					if _, ok := want[m]; !ok {
						t.Errorf("metric %s reported but not named in BENCHMARK.json", m)
					}
				}
				if line, err := json.Marshal(rep); err != nil {
					t.Fatal(err)
				} else if len(line) == 0 {
					t.Fatal("empty result line")
				}
			})
		}
	}
}
