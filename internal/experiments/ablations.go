package experiments

import (
	"acic/internal/core"
	"acic/internal/stats"
)

// AblationCSHRDefault evaluates the three readings of the paper's rule for
// CSHR entries evicted before resolution ("benefit of the doubt to the
// i-Filter victim"): train nothing (this repo's default — the Fig 8
// datapath only updates the tables from matched entries), train the victim
// as re-accessed sooner (the literal prose), or train it as later. It
// reports gmean speedup and average MPKI reduction over the baseline.
func AblationCSHRDefault(s *Suite) (*stats.Table, error) {
	modes := []struct {
		name string
		mode core.EvictTraining
	}{
		{"none (default)", core.EvictTrainNone},
		{"admit (paper prose)", core.EvictTrainAdmit},
		{"drop", core.EvictTrainDrop},
	}
	apps := s.AppNames()
	if err := s.Require(CrossCells(apps, []string{Baseline, "acic"}, "fdp")...); err != nil {
		return nil, err
	}
	// One run per non-default mode × app, fanned out on the worker pool.
	speedups := make([][]float64, len(modes))
	reductions := make([][]float64, len(modes))
	for i := range modes {
		speedups[i] = make([]float64, len(apps))
		reductions[i] = make([]float64, len(apps))
	}
	err := s.eachCell(len(modes), len(apps), func(mi, ai int) error {
		app := apps[ai]
		cc := core.DefaultConfig()
		cc.EvictTrain = modes[mi].mode
		res, err := s.acicVariant(app, cc)
		if err != nil {
			return err
		}
		base := s.res(app, Baseline, "fdp")
		speedups[mi][ai] = Speedup(base, res)
		reductions[mi][ai] = MPKIReduction(base, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"evict-training", "gmean speedup", "avg MPKI reduction"}}
	for mi, m := range modes {
		t.AddRow(m.name, stats.Geomean(speedups[mi]), stats.Percent(stats.Mean(reductions[mi])))
	}
	return t, nil
}
