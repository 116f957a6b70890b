package experiments

import (
	"runtime"
	"strings"
	"testing"

	"acic/internal/cpu"
	"acic/internal/stats"
	"acic/internal/workload"
)

// smallSuite builds a suite over a reduced app set and short traces so the
// integration tests stay fast.
func smallSuite(t *testing.T) *Suite {
	t.Helper()
	s := NewSuite(60_000)
	s.Apps = []string{"media-streaming", "sibench"}
	return s
}

func TestAllSchemesBuildAndRun(t *testing.T) {
	prof, _ := workload.ByName("media-streaming")
	w := Prepare(prof, 30_000)
	for _, name := range SchemeNames() {
		sub, err := NewScheme(name, w)
		if err != nil {
			t.Fatalf("scheme %s: %v", name, err)
		}
		res, err := RunSubsystem(w, sub, DefaultOptions())
		if err != nil {
			t.Fatalf("scheme %s: %v", name, err)
		}
		if res.Instructions == 0 || res.Cycles == 0 {
			t.Errorf("scheme %s: empty result %+v", name, res)
		}
	}
}

func TestUnknownSchemeRejected(t *testing.T) {
	prof, _ := workload.ByName("sibench")
	w := Prepare(prof, 5_000)
	if _, err := NewScheme("definitely-not-a-scheme", w); err == nil {
		t.Error("unknown scheme must error")
	}
}

func TestUnknownPrefetcherRejected(t *testing.T) {
	prof, _ := workload.ByName("sibench")
	w := Prepare(prof, 5_000)
	opts := DefaultOptions()
	opts.Prefetcher = "telepathy"
	if _, err := Run(w, Baseline, opts); err == nil {
		t.Error("unknown prefetcher must error, not panic")
	}
}

func TestRunSubsystemRejectsInvalidConfig(t *testing.T) {
	prof, _ := workload.ByName("sibench")
	w := Prepare(prof, 5_000)
	sub, err := NewScheme(Baseline, w)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Sample = cpu.SampleConfig{Stride: 3}
	if _, err := RunSubsystem(w, sub, opts); err == nil {
		t.Error("an invalid core config must error, not panic")
	}
}

func TestSuiteErrorsSurface(t *testing.T) {
	s := smallSuite(t)
	if _, err := s.Result("sibench", "definitely-not-a-scheme", "fdp"); err == nil {
		t.Error("Result must surface scheme errors")
	}
	if _, err := s.Workload("definitely-not-an-app"); err == nil {
		t.Error("Workload must surface unknown-app errors")
	}
	if err := s.Require(Cell{"sibench", Baseline, "fdp"}, Cell{"no-such-app", Baseline, "fdp"}); err == nil {
		t.Error("Require must surface unknown-app errors")
	}
	bad := NewSuite(20_000)
	bad.Apps = []string{"no-such-app"}
	if _, err := bad.Fig10(); err == nil {
		t.Error("figure over an unknown app must return an error")
	}
}

func TestSuiteMemoization(t *testing.T) {
	s := smallSuite(t)
	r1, err := s.Result("sibench", Baseline, "fdp")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Result("sibench", Baseline, "fdp")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("memoized results must be identical")
	}
	if computed, _, _ := s.Stats(); computed != 1 {
		t.Errorf("cell computed %d times, want 1", computed)
	}
	if len(s.AppNames()) != 2 {
		t.Error("app restriction ignored")
	}
	if len(s.SPECNames()) != 5 {
		t.Error("SPEC list wrong")
	}
}

func TestOrderingInvariants(t *testing.T) {
	// The structural results every figure depends on, in the paper's
	// order: OPT beats ACIC and ACIC beats the baseline, on MPKI and on
	// cycles for OPT; and the paper's headline, Fig 10's geomean cycles
	// speedup of ACIC over the baseline under FDP, is above 1 and at most
	// OPT's.
	s := smallSuite(t)
	if err := s.Require(CrossCells(s.AppNames(), []string{Baseline, "acic", "opt"}, "fdp")...); err != nil {
		t.Fatal(err)
	}
	var acicSpeedups, optSpeedups []float64
	for _, app := range s.AppNames() {
		acicSpeedups = append(acicSpeedups, s.speedupOver(app, Baseline, "acic", "fdp"))
		optSpeedups = append(optSpeedups, s.speedupOver(app, Baseline, "opt", "fdp"))
		base := s.res(app, Baseline, "fdp")
		acic := s.res(app, "acic", "fdp")
		opt := s.res(app, "opt", "fdp")
		if opt.MPKI() >= base.MPKI() {
			t.Errorf("%s: OPT MPKI %.2f not below baseline %.2f", app, opt.MPKI(), base.MPKI())
		}
		if acic.MPKI() >= base.MPKI() {
			t.Errorf("%s: ACIC MPKI %.2f not below baseline %.2f", app, acic.MPKI(), base.MPKI())
		}
		if opt.Cycles >= base.Cycles {
			t.Errorf("%s: OPT cycles %d not below baseline %d", app, opt.Cycles, base.Cycles)
		}
		if opt.MPKI() > acic.MPKI() {
			t.Errorf("%s: OPT MPKI %.2f above ACIC %.2f", app, opt.MPKI(), acic.MPKI())
		}
		if opt.Cycles > acic.Cycles {
			t.Errorf("%s: OPT cycles %d above ACIC %d", app, opt.Cycles, acic.Cycles)
		}
	}
	acicGmean, optGmean := stats.Geomean(acicSpeedups), stats.Geomean(optSpeedups)
	if acicGmean <= 1 {
		t.Errorf("ACIC geomean speedup over %s %.4f not above 1", Baseline, acicGmean)
	}
	if acicGmean > optGmean {
		t.Errorf("ACIC geomean speedup %.4f above OPT's %.4f", acicGmean, optGmean)
	}
}

func TestSpeedupAndReductionHelpers(t *testing.T) {
	s := smallSuite(t)
	sp, err := s.SpeedupOver("sibench", Baseline, "opt", "fdp")
	if err != nil {
		t.Fatal(err)
	}
	if sp <= 1.0 {
		t.Errorf("OPT speedup = %.4f, want > 1", sp)
	}
	red, err := s.MPKIReductionOver("sibench", Baseline, "opt", "fdp")
	if err != nil {
		t.Fatal(err)
	}
	if red <= 0 || red > 1 {
		t.Errorf("OPT MPKI reduction = %.4f", red)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	out := Table1().String()
	if !strings.Contains(out, "2.668KB") && !strings.Contains(out, "2.67") {
		t.Errorf("Table 1 total missing 2.67KB:\n%s", out)
	}
	for _, comp := range []string{"i-Filter", "HRT", "PT", "CSHR"} {
		if !strings.Contains(out, comp) {
			t.Errorf("Table 1 missing %s", comp)
		}
	}
}

func TestTable4ListsAllSchemes(t *testing.T) {
	out := Table4().String()
	for _, sch := range []string{"srrip", "ship", "ghrp", "dsb", "obm", "vvc", "vc3k", "acic", "opt"} {
		if !strings.Contains(out, sch) {
			t.Errorf("Table 4 missing %s", sch)
		}
	}
}

func TestFig1aShape(t *testing.T) {
	s := smallSuite(t)
	tbl, err := s.Fig1a()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "media-streaming") {
		t.Errorf("Fig 1a missing app row:\n%s", out)
	}
	// The spatial bucket should dominate (>70%), visible as a 7x or 8x
	// leading percentage in the first data column.
	if !strings.Contains(out, "media-streaming  8") && !strings.Contains(out, "media-streaming  7") && !strings.Contains(out, "media-streaming  9") {
		t.Errorf("Fig 1a spatial bucket not dominant:\n%s", out)
	}
}

// TestFig1aAllocatesPerBlockAccess: Fig 1a reads the collapsed block
// sequence and its run lengths, so its allocation grows with the block
// accesses (about 15 B each here), not with the instructions. Expanding
// the per-instruction stream alone costs 8 B per instruction, about 60 B
// per block access.
func TestFig1aAllocatesPerBlockAccess(t *testing.T) {
	s := smallSuite(t)
	s.Workers = 1
	if err := s.PrepareAll(s.AppNames()...); err != nil {
		t.Fatal(err)
	}
	accesses := 0
	for _, app := range s.AppNames() {
		accesses += len(s.wl(app).Blocks)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.Fig1a(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Fig1a allocated %d B for %d block accesses (%.1f B each)", alloc, accesses, float64(alloc)/float64(accesses))
	if alloc > uint64(20*accesses) {
		t.Errorf("Fig1a allocated %d B, want at most 20 B for each of %d block accesses", alloc, accesses)
	}
}

func TestFig3bWrongInsertionBand(t *testing.T) {
	s := smallSuite(t)
	_, wrong, err := s.Fig3b("media-streaming")
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 38.38%; our band check: a substantial minority of
	// insertions must be wrong, else admission control has nothing to do.
	if wrong < 0.10 || wrong > 0.80 {
		t.Errorf("wrong-insertion fraction = %.3f, outside plausible band", wrong)
	}
}

func TestFig13AdmitFractionsInRange(t *testing.T) {
	s := smallSuite(t)
	tbl, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if out := tbl.String(); !strings.Contains(out, "%") {
		t.Errorf("Fig 13 output:\n%s", out)
	}
}

func TestEnergyTableNegativeAvg(t *testing.T) {
	s := smallSuite(t)
	tbl, err := s.Energy()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "avg") {
		t.Errorf("energy table missing avg row:\n%s", out)
	}
	// The avg row should report a saving (negative delta), echoing the
	// paper's -0.63%.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "-") {
		t.Errorf("expected an energy saving in %q", last)
	}
}

func TestACICBypassAdapter(t *testing.T) {
	prof, _ := workload.ByName("sibench")
	w := Prepare(prof, 20_000)
	sub, err := NewScheme("acic-nofilter", w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSubsystem(w, sub, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 {
		t.Error("no instructions retired")
	}
	if sub.Name() != "acic-nofilter" {
		t.Errorf("name = %q", sub.Name())
	}
}

func TestExtensionDrivers(t *testing.T) {
	s := smallSuite(t)
	ext, err := s.ExtendedComparison()
	if err != nil {
		t.Fatal(err)
	}
	if out := ext.String(); !strings.Contains(out, "acic-pfaware") {
		t.Errorf("extended comparison missing pf-aware row:\n%s", out)
	}
	hr, err := s.Headroom()
	if err != nil {
		t.Fatal(err)
	}
	if out := hr.String(); !strings.Contains(out, "36KB") {
		t.Errorf("headroom table missing 36KB column:\n%s", out)
	}
	pfb, err := s.PrefetcherBaselines()
	if err != nil {
		t.Fatal(err)
	}
	out := pfb.String()
	for _, pf := range []string{"none", "next-line", "stream", "entangling", "fdp"} {
		if !strings.Contains(out, pf) {
			t.Errorf("prefetcher table missing %s:\n%s", pf, out)
		}
	}
}

func TestAblationCSHRDefaultRows(t *testing.T) {
	s := smallSuite(t)
	tbl, err := AblationCSHRDefault(s)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, m := range []string{"none", "admit", "drop"} {
		if !strings.Contains(out, m) {
			t.Errorf("ablation missing mode %s:\n%s", m, out)
		}
	}
}

func TestPrefetchAwareSchemeRuns(t *testing.T) {
	prof, _ := workload.ByName("sibench")
	w := Prepare(prof, 30_000)
	sub, err := NewScheme("acic-pfaware", w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSubsystem(w, sub, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 || sub.Name() != "acic-pfaware" {
		t.Errorf("pf-aware run broken: %+v name=%q", res, sub.Name())
	}
}

// schemeCells lists one RunGangCells cell per scheme, each under the
// batch Options' prefetcher.
func schemeCells(schemes ...string) []GangCell {
	cells := make([]GangCell, len(schemes))
	for i, scheme := range schemes {
		cells[i] = GangCell{Scheme: scheme}
	}
	return cells
}

// TestRunGangMatchesRunEverywhere: for two apps, every registered scheme
// under every prefetcher platform must produce a bit-identical cpu.Result
// through the RunGangCells batch entry point and through Run — which also
// pins that no scheme carries state from one simulation into the next.
func TestRunGangMatchesRunEverywhere(t *testing.T) {
	schemes := SchemeNames()
	for _, app := range []string{"media-streaming", "data-caching"} {
		prof, ok := workload.ByName(app)
		if !ok {
			t.Fatalf("unknown workload %q", app)
		}
		w := Prepare(prof, 80_000)
		for _, pf := range Prefetchers() {
			opts := DefaultOptions()
			opts.Prefetcher = pf
			batchRes, _, batchErrs := RunGangCells(w, schemeCells(schemes...), opts)
			for i, scheme := range schemes {
				if batchErrs[i] != nil {
					t.Fatalf("%s/%s/%s: batch error: %v", app, scheme, pf, batchErrs[i])
				}
				serial, err := Run(w, scheme, opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: Run error: %v", app, scheme, pf, err)
				}
				if batchRes[i] != serial {
					t.Errorf("%s/%s/%s: batch %+v != Run %+v", app, scheme, pf, batchRes[i], serial)
				}
			}
		}
	}
}

// TestRunGangPartialErrors: an unknown scheme errors in its own slot while
// the valid cells still run and match Run.
func TestRunGangPartialErrors(t *testing.T) {
	prof, _ := workload.ByName("media-streaming")
	w := Prepare(prof, 40_000)
	opts := DefaultOptions()
	res, _, errs := RunGangCells(w, schemeCells("lru", "no-such-scheme", "opt"), opts)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid cells errored: %v, %v", errs[0], errs[2])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "no-such-scheme") {
		t.Fatalf("invalid cell error = %v", errs[1])
	}
	want, err := Run(w, "opt", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res[2] != want {
		t.Errorf("cell after failed slot diverges: %+v != %+v", res[2], want)
	}

	badPf := DefaultOptions()
	badPf.Prefetcher = "warp-drive"
	_, _, errs = RunGangCells(w, schemeCells("lru"), badPf)
	if errs[0] == nil {
		t.Error("unknown prefetcher must error every cell")
	}
}

// TestRunGangCellsCrossPrefetcher: cells mixing every platform (and the
// "" shorthand for opts.Prefetcher) in one batch must each match a Run
// under that cell's platform, and the retired window result reads 0.
func TestRunGangCellsCrossPrefetcher(t *testing.T) {
	prof, _ := workload.ByName("web-search")
	w := Prepare(prof, 60_000)
	cells := []GangCell{
		{Scheme: "lru", Prefetcher: "fdp"},
		{Scheme: "lru", Prefetcher: "none"},
		{Scheme: "acic", Prefetcher: "entangling"},
		{Scheme: "opt", Prefetcher: "next-line"},
		{Scheme: "acic", Prefetcher: "stream"},
		{Scheme: "acic", Prefetcher: ""}, // inherits opts.Prefetcher
	}
	opts := DefaultOptions()
	res, window, errs := RunGangCells(w, cells, opts)
	if window != 0 {
		t.Errorf("RunGangCells reported window %d, want 0", window)
	}
	for i, c := range cells {
		if errs[i] != nil {
			t.Fatalf("cell %d (%s/%s): %v", i, c.Scheme, c.Prefetcher, errs[i])
		}
		serialOpts := opts
		if c.Prefetcher != "" {
			serialOpts.Prefetcher = c.Prefetcher
		}
		want, err := Run(w, c.Scheme, serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		if res[i] != want {
			t.Errorf("cell %d (%s/%s): batch %+v != Run %+v", i, c.Scheme, c.Prefetcher, res[i], want)
		}
	}
}

// TestRunGangCellsPartialErrors: a bad scheme and a bad prefetcher each
// error in their own slot; the surviving cells still run and match Run.
func TestRunGangCellsPartialErrors(t *testing.T) {
	prof, _ := workload.ByName("media-streaming")
	w := Prepare(prof, 40_000)
	opts := DefaultOptions()
	cells := []GangCell{
		{Scheme: "lru", Prefetcher: "none"},
		{Scheme: "no-such-scheme", Prefetcher: "none"},
		{Scheme: "opt", Prefetcher: "warp-drive"},
		{Scheme: "opt", Prefetcher: "entangling"},
	}
	res, _, errs := RunGangCells(w, cells, opts)
	if errs[0] != nil || errs[3] != nil {
		t.Fatalf("valid cells errored: %v, %v", errs[0], errs[3])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "no-such-scheme") {
		t.Errorf("bad-scheme slot error = %v", errs[1])
	}
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "warp-drive") {
		t.Errorf("bad-prefetcher slot error = %v", errs[2])
	}
	serialOpts := opts
	serialOpts.Prefetcher = "entangling"
	want, err := Run(w, "opt", serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res[3] != want {
		t.Errorf("survivor after failed slots diverges: %+v != %+v", res[3], want)
	}
}
