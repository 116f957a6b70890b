package experiments

import (
	"testing"

	"acic/internal/workload"
)

// BenchmarkSimulatorRun times whole full-lane simulations through Run, the
// path every figure cell takes: lru and acic under fdp and none over three
// datacenter apps at 400k instructions. ns/inst is wall time per simulated
// instruction, warmup included; the acic-minus-lru difference is the
// admission complex, the rest is the timing core and the i-cache.
func BenchmarkSimulatorRun(b *testing.B) {
	for _, app := range []string{"media-streaming", "web-search", "tpcc"} {
		prof, ok := workload.ByName(app)
		if !ok {
			b.Fatalf("%s profile missing", app)
		}
		w := Prepare(prof, 400_000)
		for _, scheme := range []string{Baseline, "acic"} {
			for _, pf := range []string{"fdp", "none"} {
				b.Run(app+"/"+scheme+"/"+pf, func(b *testing.B) {
					opts := DefaultOptions()
					opts.Prefetcher = pf
					for b.Loop() {
						if _, err := Run(w, scheme, opts); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w.Prog.Len()), "ns/inst")
				})
			}
		}
	}
}
