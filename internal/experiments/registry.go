package experiments

import (
	"fmt"
	"sync"

	"acic/internal/stats"
)

// Experiment is one runnable entry of the paper's experiment index: a
// stable slug (the -exp id and the /v1/figures/{name} path element — one
// identifier, so CLI names and the serve API can never drift), a
// one-line description, and a renderer that executes its cells on the
// given suite and returns the printed output. The registry lives here —
// not in acic-bench — so every driver (the bench CLI, the distributed
// coordinator, acic-serve) runs the identical experiment list and
// produces byte-identical output for a given suite configuration.
//
// Slugs are lowercase [a-z0-9-], unique, and stable: renaming one is a
// breaking change to both the CLI and the versioned HTTP API
// (registry_test.go pins the invariants).
type Experiment struct {
	Slug string
	Desc string
	Run  func(s *Suite) (string, error)
}

func tableExp(slug, desc string, f func(*Suite) (*stats.Table, error)) Experiment {
	return Experiment{Slug: slug, Desc: desc, Run: func(s *Suite) (string, error) {
		t, err := f(s)
		if err != nil {
			return "", err
		}
		return t.String(), nil
	}}
}

// staticExp wraps suite-independent tables (Table I/II/IV).
func staticExp(slug, desc string, f func() *stats.Table) Experiment {
	return tableExp(slug, desc, func(*Suite) (*stats.Table, error) { return f(), nil })
}

// experimentsBySlug indexes the registry by slug, built once: the serve
// daemon resolves a slug on every figure request, and Registry builds
// every entry's closure afresh. Entries hold no state, so one copy serves
// every caller.
var experimentsBySlug = sync.OnceValue(func() map[string]Experiment {
	reg := Registry()
	m := make(map[string]Experiment, len(reg))
	for _, e := range reg {
		m[e.Slug] = e
	}
	return m
})

// LookupExperiment resolves a slug to its registry entry. Every
// by-name consumer — acic-bench -exp, acic-coord -exp, the serve
// daemon's /v1/figures/{name} — resolves through here, which is what
// makes the slug the single spelling of an experiment's identity.
func LookupExperiment(slug string) (Experiment, bool) {
	e, ok := experimentsBySlug()[slug]
	return e, ok
}

// ExperimentSlugs returns every registry slug in presentation order.
func ExperimentSlugs() []string {
	reg := Registry()
	slugs := make([]string, len(reg))
	for i, e := range reg {
		slugs[i] = e.Slug
	}
	return slugs
}

// Registry returns the full experiment index in presentation order (the
// order `-exp all` prints).
func Registry() []Experiment {
	return []Experiment{
		staticExp("table1", "ACIC storage breakdown (Table I)", Table1),
		staticExp("table2", "simulation parameters (Table II)", Table2),
		tableExp("table3", "per-app baseline L1i MPKI (Table III)", (*Suite).Table3),
		staticExp("table4", "per-scheme storage overhead (Table IV)", Table4),
		tableExp("fig1a", "reuse-distance distributions (Fig 1a)", (*Suite).Fig1a),
		tableExp("fig1b", "reuse-distance Markov chain, media-streaming (Fig 1b)",
			func(s *Suite) (*stats.Table, error) { return s.Fig1b("media-streaming") }),
		tableExp("fig3a", "i-Filter / access-count / OPT speedups (Fig 3a)", (*Suite).Fig3a),
		{Slug: "fig3b", Desc: "reuse-delta of incoming vs OPT-outgoing blocks (Fig 3b)", Run: runFig3b},
		{Slug: "fig6", Desc: "CSHR entry lifetime distribution, data-caching (Fig 6)", Run: runFig6},
		tableExp("fig10", "speedup of all schemes over LRU+FDP (Fig 10)", (*Suite).Fig10),
		tableExp("fig11", "MPKI reduction of all schemes (Fig 11)", (*Suite).Fig11),
		tableExp("fig12a", "ACIC bypass accuracy by reuse range (Fig 12a)", (*Suite).Fig12a),
		tableExp("fig12b", "random-60% bypass vs ACIC (Fig 12b)", (*Suite).Fig12b),
		tableExp("fig13", "fraction of i-Filter victims admitted (Fig 13)", (*Suite).Fig13),
		tableExp("fig14", "parallel vs instant predictor update (Fig 14)", (*Suite).Fig14),
		tableExp("fig15", "parameter sensitivity (Fig 15)", (*Suite).Fig15),
		tableExp("fig16", "ACIC speedup over LRU+i-Filter baseline (Fig 16)", (*Suite).Fig16),
		tableExp("fig17", "simplified-design ablation (Fig 17)", (*Suite).Fig17),
		tableExp("fig18", "SPEC speedups (Fig 18)", (*Suite).Fig18),
		tableExp("fig19", "SPEC MPKI reductions (Fig 19)", (*Suite).Fig19),
		tableExp("fig20", "speedups over entangling baseline (Fig 20)", (*Suite).Fig20),
		tableExp("fig21", "MPKI reductions over entangling baseline (Fig 21)", (*Suite).Fig21),
		tableExp("energy", "chip-energy delta of ACIC (Section III-D)", (*Suite).Energy),
		tableExp("ext-schemes", "extension baselines: DIP family, EAF, PLRU, pf-aware ACIC",
			(*Suite).ExtendedComparison),
		tableExp("ext-pfaware", "prefetch-aware ACIC (paper future work)", (*Suite).PrefetchAware),
		tableExp("ext-headroom", "LRU miss-ratio curve over capacity", (*Suite).Headroom),
		tableExp("ext-prefetchers", "baseline under each prefetcher", (*Suite).PrefetcherBaselines),
		tableExp("ext-evict-train", "CSHR unresolved-eviction training ablation", AblationCSHRDefault),
	}
}

func runFig3b(s *Suite) (string, error) {
	h, wrong, err := s.Fig3b("media-streaming")
	if err != nil {
		return "", err
	}
	labels := []string{"<=-10000", "-1000", "-100", "-10", "<=0", "10", "100", "1000", "10000", ">10000"}
	t := &stats.Table{Header: []string{"delta bucket", "fraction"}}
	for i, f := range h.Fractions() {
		t.AddRow(labels[i], stats.Percent(f))
	}
	return t.String() + fmt.Sprintf("wrong insertions (delta>0): %s (paper: 38.38%%)\n", stats.Percent(wrong)), nil
}

func runFig6(s *Suite) (string, error) {
	h, err := s.Fig6("data-caching")
	if err != nil {
		return "", err
	}
	labels := []string{"0-50", "50-100", "100-150", "150-200", "200-250", "250-300", "300-350", "350-400", "InF"}
	t := &stats.Table{Header: []string{"comparisons", "fraction"}}
	for i, f := range h.Fractions() {
		t.AddRow(labels[i], stats.Percent(f))
	}
	return t.String(), nil
}
