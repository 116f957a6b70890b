package experiments

import (
	"math"
	"testing"

	"acic/internal/cpu"
	"acic/internal/workload"
)

// sampledTestWorkload prepares one small synthetic workload for the
// sampled-mode tests (shared across subtests via the prepare pipeline's
// in-memory memoization is not needed — each call is cheap at this n).
func sampledTestWorkload(t *testing.T, app string, n int) *Workload {
	t.Helper()
	p, ok := workload.ByName(app)
	if !ok {
		t.Fatalf("unknown workload %q", app)
	}
	return Prepare(p, n)
}

// relErr returns |a/b - 1| in percent (0 when both are zero).
func relErr(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 100
	}
	return 100 * math.Abs(a/b-1)
}

// Sampled-mode differential bounds, per prefetcher platform (DESIGN.md
// §10): the sampled lane must land within these of the full reference on
// every scheme × prefetcher cell of the small synthetic workloads below.
// FDP is the paper's primary platform and holds the tightest bars; table
// prefetchers train on the sampled stream only and are the loosest.
var sampledBounds = map[string]struct{ cycles, mpki float64 }{
	"fdp":        {cycles: 8, mpki: 35},
	"none":       {cycles: 10, mpki: 35},
	"entangling": {cycles: 18, mpki: 45},
}

// runSampled simulates one scheme under sampleSets of the default L1i
// sets, with the workload's digest-derived constituency — the sampled
// lane the Suite and the CLIs run.
func runSampled(w *Workload, scheme string, sampleSets int, opts Options) (cpu.Result, error) {
	sample, err := SampleConfigFor(sampleSets, w.Profile.Name)
	if err != nil {
		return cpu.Result{}, err
	}
	opts.Sample = sample
	return Run(w, scheme, opts)
}

// TestSampledMatchesFullWithinBounds pins the sampled fast mode's error
// bars: every scheme × prefetcher cell, simulated at -sample-sets 8,
// must extrapolate to within the documented bound of the full run.
func TestSampledMatchesFullWithinBounds(t *testing.T) {
	schemes := []string{"lru", "srrip", "harmony", "ghrp", "dsb", "vvc", "vc3k", "acic", "opt", "opt-bypass"}
	for _, app := range []string{"media-streaming", "web-search"} {
		w := sampledTestWorkload(t, app, 200_000)
		for pf, bound := range sampledBounds {
			for _, scheme := range schemes {
				opts := DefaultOptions()
				opts.Prefetcher = pf
				full, err := Run(w, scheme, opts)
				if err != nil {
					t.Fatalf("%s/%s/%s full: %v", app, scheme, pf, err)
				}
				samp, err := runSampled(w, scheme, 8, opts)
				if err != nil {
					t.Fatalf("%s/%s/%s sampled: %v", app, scheme, pf, err)
				}
				if samp.SampleStride != 8 {
					t.Fatalf("%s/%s/%s: SampleStride = %d, want 8", app, scheme, pf, samp.SampleStride)
				}
				// The reference takes its warmup snapshot at the end of the
				// step that crosses the boundary (overshooting by up to a
				// fetch group); the sampled lane lands exactly on it.
				if d := samp.Instructions - full.Instructions; d < 0 || d > 8 {
					t.Fatalf("%s/%s/%s: sampled run covers %d instructions, full %d",
						app, scheme, pf, samp.Instructions, full.Instructions)
				}
				if d := samp.BlockAccesses - full.BlockAccesses; d < -2 || d > 2 {
					t.Fatalf("%s/%s/%s: sampled run covers %d accesses, full %d",
						app, scheme, pf, samp.BlockAccesses, full.BlockAccesses)
				}
				if e := relErr(float64(samp.Cycles), float64(full.Cycles)); e > bound.cycles {
					t.Errorf("%s/%s/%s: cycles error %.2f%% > %.0f%% (sampled %d, full %d)",
						app, scheme, pf, e, bound.cycles, samp.Cycles, full.Cycles)
				}
				if e := relErr(samp.MPKI(), full.MPKI()); e > bound.mpki {
					t.Errorf("%s/%s/%s: MPKI error %.2f%% > %.0f%% (sampled %.3f, full %.3f)",
						app, scheme, pf, e, bound.mpki, samp.MPKI(), full.MPKI())
				}
			}
		}
	}
}

// TestSampledDeterministic pins run-to-run determinism: the same
// -sample-sets value must reproduce the identical Result struct.
func TestSampledDeterministic(t *testing.T) {
	w := sampledTestWorkload(t, "media-streaming", 150_000)
	for _, scheme := range []string{"lru", "acic", "opt"} {
		opts := DefaultOptions()
		a, err := runSampled(w, scheme, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runSampled(w, scheme, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: sampled runs differ:\n  %+v\n  %+v", scheme, a, b)
		}
	}
}

// TestSampledGangMatchesSerial pins the RunGangCells batch entry point to
// per-cell Run results on the sampled lane.
func TestSampledGangMatchesSerial(t *testing.T) {
	w := sampledTestWorkload(t, "web-search", 150_000)
	schemes := []string{"lru", "srrip", "acic", "opt"}
	opts := DefaultOptions()
	opts.Sample = cpu.SampleConfig{Stride: 8, Offset: 1}
	serial := make([]cpu.Result, len(schemes))
	for i, scheme := range schemes {
		r, err := Run(w, scheme, opts)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	batch, _, errs := RunGangCells(w, schemeCells(schemes...), opts)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", schemes[i], err)
		}
	}
	for i := range schemes {
		if batch[i] != serial[i] {
			t.Errorf("%s: batch sampled result diverges from Run:\n  batch %+v\n  Run   %+v",
				schemes[i], batch[i], serial[i])
		}
	}
}

// TestSampledFullPathUnchanged pins that a zero SampleConfig runs the
// reference lane: results carry no sampling provenance.
func TestSampledFullPathUnchanged(t *testing.T) {
	w := sampledTestWorkload(t, "media-streaming", 100_000)
	full, err := Run(w, "lru", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if full.SampleStride != 0 || full.SampledAccesses != 0 {
		t.Fatalf("full run carries sampling provenance: %+v", full)
	}
	viaSampled, err := runSampled(w, "lru", 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if viaSampled != full {
		t.Fatalf("sampled lane at 0 sets != Run:\n  %+v\n  %+v", viaSampled, full)
	}
}

// TestSampleSetsToStride pins SampleConfigFor's sets→stride conversion
// and its validation.
func TestSampleSetsToStride(t *testing.T) {
	for _, tc := range []struct {
		sets   int
		stride int
		ok     bool
	}{
		{0, 0, true}, {64, 0, true}, {8, 8, true}, {4, 16, true},
		{32, 2, true}, {1, 64, true},
		{3, 0, false}, {65, 0, false}, {-1, 0, false}, {48, 0, false},
	} {
		cfg, err := SampleConfigFor(tc.sets, "media-streaming")
		if (err == nil) != tc.ok {
			t.Errorf("SampleConfigFor(%d): err=%v, want ok=%v", tc.sets, err, tc.ok)
			continue
		}
		if err == nil && cfg.Stride != tc.stride {
			t.Errorf("SampleConfigFor(%d).Stride = %d, want %d", tc.sets, cfg.Stride, tc.stride)
		}
		if err == nil && cfg.Enabled() && cfg.Offset == 0 {
			t.Errorf("SampleConfigFor(%d) picked constituency 0 (alignment-biased)", tc.sets)
		}
		if err == nil && cfg.Validate() != nil {
			t.Errorf("SampleConfigFor(%d) = %+v, which the simulator refuses", tc.sets, cfg)
		}
	}
}

// TestSampleOffsetDerivation pins the digest-derived default constituency:
// deterministic per workload, always in [1, stride), and decorrelated
// across workloads.
func TestSampleOffsetDerivation(t *testing.T) {
	apps := []string{"media-streaming", "web-search", "data-caching", "tpcc", "wikipedia", "sibench"}
	offsets := make(map[int]bool)
	for _, app := range apps {
		a, err := SampleConfigFor(8, app)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		b, _ := SampleConfigFor(8, app)
		if a != b {
			t.Errorf("%s: derived offset not deterministic: %+v != %+v", app, a, b)
		}
		if a.Offset < 1 || a.Offset >= a.Stride {
			t.Errorf("%s: offset %d outside [1,%d)", app, a.Offset, a.Stride)
		}
		offsets[a.Offset] = true
	}
	// The whole point of deriving per workload: the fleet must not pile
	// onto one constituency.
	if len(offsets) < 2 {
		t.Errorf("all %d workloads derived the same constituency %v", len(apps), offsets)
	}
	// stride 2 has a single unbiased constituency; derivation lands on it.
	if cfg, err := SampleConfigFor(32, "media-streaming"); err != nil || cfg.Offset != 1 {
		t.Errorf("stride-2 derivation = %+v, %v, want offset 1", cfg, err)
	}
}

// TestSampledCacheKeysDistinct pins that sampled and full suite results
// can never collide in one persistent cache.
func TestSampledCacheKeysDistinct(t *testing.T) {
	full := NewSuite(100_000)
	sampled := NewSuite(100_000)
	sampled.SampleSets = 8
	if err := sampled.CacheError(); err != nil {
		t.Fatal(err)
	}
	c := Cell{App: "media-streaming", Scheme: "lru", Prefetcher: "fdp"}
	fk, sk := full.cacheKey(c), sampled.cacheKey(c)
	if fk == sk {
		t.Fatalf("full and sampled cache keys collide: %s", fk)
	}
	stride16 := NewSuite(100_000)
	stride16.SampleSets = 4
	if err := stride16.CacheError(); err != nil {
		t.Fatal(err)
	}
	if k := stride16.cacheKey(c); k == sk {
		t.Fatalf("different sample strides share a cache key: %s", k)
	}
	// Same stride, another constituency: distinct keys, so one CacheDir
	// never conflates results from different sampled sets.
	if a, b := sampleKey(cpu.SampleConfig{Stride: 8, Offset: 1}), sampleKey(cpu.SampleConfig{Stride: 8, Offset: 7}); a == b {
		t.Fatalf("different constituencies share a sample key: %s", a)
	}
}

// TestExtrapolated pins the scaling arithmetic.
func TestExtrapolated(t *testing.T) {
	r := cpu.Result{
		Cycles:           1000,
		Instructions:     4000,
		BlockAccesses:    800,
		DemandMisses:     10,
		LateMisses:       4,
		Prefetches:       20,
		IMissStallCycles: 100,
		SampleStride:     8,
		SampledAccesses:  100, // measured ratio 8 = stride
	}
	e := r.Extrapolated()
	if e.DemandMisses != 80 || e.LateMisses != 32 || e.Prefetches != 160 {
		t.Fatalf("extrapolated counters wrong: %+v", e)
	}
	if e.IMissStallCycles != 800 {
		t.Fatalf("extrapolated stall = %d, want 800", e.IMissStallCycles)
	}
	if e.Cycles != 1000+700 {
		t.Fatalf("extrapolated cycles = %d, want 1700", e.Cycles)
	}
	if full := (cpu.Result{Cycles: 5, DemandMisses: 3}); full.Extrapolated() != full {
		t.Fatal("full-run Extrapolated is not the identity")
	}
}
