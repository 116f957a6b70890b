// Reuse analysis: characterize the burstiness of the instruction stream the
// way the paper's motivation section does — the Fig 1a reuse-distance
// distribution, the Fig 1b Markov chain, and burst statistics.
//
//	go run ./examples/reuse-analysis [workload]
package main

import (
	"fmt"
	"log"
	"os"

	"acic/internal/analysis"
	"acic/internal/cache"
	"acic/internal/stats"
	"acic/internal/workload"
)

func main() {
	app := "media-streaming"
	if len(os.Args) > 1 {
		app = os.Args[1]
	}
	prof, ok := workload.ByName(app)
	if !ok {
		log.Fatalf("unknown workload %q", app)
	}
	tr := workload.Generate(prof, 300_000)

	blocks := tr.BlockAccesses()
	reuse := analysis.InstReuseProfile(blocks, tr.RunLengths(), analysis.Fig1aEdges, cache.SampleFilter{})

	labels := []string{"0", "1-16", "16-512", "512-1024", "1024-10000", ">10000"}
	tbl := &stats.Table{Header: []string{"reuse distance", "fraction"}}
	for i, f := range reuse.Dist {
		tbl.AddRow(labels[i], stats.Percent(f))
	}
	fmt.Printf("%s reuse-distance distribution (Fig 1a granularity):\n%s\n", app, tbl.String())

	mt := &stats.Table{Header: append([]string{"from\\to"}, labels...)}
	for i, row := range reuse.Chain {
		cells := []any{labels[i]}
		for _, p := range row {
			cells = append(cells, fmt.Sprintf("%.3f", p))
		}
		mt.AddRow(cells...)
	}
	fmt.Printf("reuse-distance Markov chain (Fig 1b):\n%s\n", mt.String())

	bs := analysis.Bursts(blocks, 16)
	fmt.Printf("bursts at the i-Filter threshold (16): %d bursts, mean length %.2f block accesses, %.1f%% of accesses intra-burst\n",
		bs.Bursts, bs.MeanLength, 100*bs.FracInBurst)
}
