package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"acic/internal/cpu"
	"acic/internal/icache"
	"acic/internal/workload"
)

// schemeCells lists one gang member per scheme, each under the gang
// Options' prefetcher.
func schemeCells(schemes ...string) []GangCell {
	cells := make([]GangCell, len(schemes))
	for i, scheme := range schemes {
		cells[i] = GangCell{Scheme: scheme}
	}
	return cells
}

// TestRunGangMatchesRunEverywhere is the gang differential: for two apps,
// every registered scheme under every prefetcher platform must produce a
// bit-identical cpu.Result through RunGangCells and through the serial Run
// path. This is the contract that lets the suite group cells into gangs
// without auditing downstream renderers.
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
			gangRes, _, gangErrs := RunGangCells(w, schemeCells(schemes...), opts)
			for i, scheme := range schemes {
				if gangErrs[i] != nil {
					t.Fatalf("%s/%s/%s: gang error: %v", app, scheme, pf, gangErrs[i])
				}
				serial, err := Run(w, scheme, opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: serial error: %v", app, scheme, pf, err)
				}
				if gangRes[i] != serial {
					t.Errorf("%s/%s/%s: gang %+v != serial %+v", app, scheme, pf, gangRes[i], serial)
				}
			}
		}
	}
}

// TestRunGangPartialErrors: an unknown scheme errors in its own slot while
// the valid members still run and match serial.
func TestRunGangPartialErrors(t *testing.T) {
	prof, _ := workload.ByName("media-streaming")
	w := Prepare(prof, 40_000)
	opts := DefaultOptions()
	res, _, errs := RunGangCells(w, schemeCells("lru", "no-such-scheme", "opt"), opts)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid members errored: %v, %v", errs[0], errs[2])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "no-such-scheme") {
		t.Fatalf("invalid member error = %v", errs[1])
	}
	want, err := Run(w, "opt", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res[2] != want {
		t.Errorf("member after failed slot diverges: %+v != %+v", res[2], want)
	}

	badPf := DefaultOptions()
	badPf.Prefetcher = "warp-drive"
	_, _, errs = RunGangCells(w, schemeCells("lru"), badPf)
	if errs[0] == nil {
		t.Error("unknown prefetcher must error every member")
	}
}

// gangFigSlice renders a Fig10+Fig11+Fig13 slice under the given gang
// size (0 = per-cell execution) and returns the exact bytes printed.
func gangFigSlice(t *testing.T, gangSize int, cacheDir string) string {
	t.Helper()
	s := NewSuite(40_000)
	s.Apps = []string{"media-streaming", "sibench"}
	s.Workers = 2
	s.GangSize = gangSize
	s.CacheDir = cacheDir
	var out strings.Builder
	t10, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	t11, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	t13, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(t10.String())
	out.WriteString(t11.String())
	out.WriteString(t13.String())
	return out.String()
}

// TestSuiteGangOutputIdentical pins the end-to-end promise: rendered
// figure output is byte-identical with gangs disabled, small, and wider
// than any group.
func TestSuiteGangOutputIdentical(t *testing.T) {
	serial := gangFigSlice(t, 0, "")
	for _, gangSize := range []int{3, 64} {
		if got := gangFigSlice(t, gangSize, ""); got != serial {
			t.Errorf("gangSize=%d output diverges from per-cell execution:\n--- per-cell ---\n%s--- gang ---\n%s",
				gangSize, serial, got)
		}
	}
}

// TestSuiteGangUsesAndFillsDiskCache: a gang run populates the persistent
// cache so a per-cell rerun computes nothing, and vice versa — the cache
// entries are path-independent.
func TestSuiteGangUsesAndFillsDiskCache(t *testing.T) {
	dir := t.TempDir()
	first := gangFigSlice(t, 4, dir)

	// Per-cell rerun over the gang-filled cache.
	s := NewSuite(40_000)
	s.Apps = []string{"media-streaming", "sibench"}
	s.CacheDir = dir
	t10, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	computed, fromCache, _ := s.Stats()
	if computed != 0 {
		t.Errorf("per-cell rerun computed %d cells over a gang-filled cache", computed)
	}
	if fromCache == 0 {
		t.Error("per-cell rerun hit nothing in the gang-filled cache")
	}
	if !strings.Contains(first, t10.String()) {
		t.Error("cached per-cell rerun diverges from the gang run's output")
	}

	// Gang rerun over the same cache: gangs must consult it per member.
	s2 := NewSuite(40_000)
	s2.Apps = []string{"media-streaming", "sibench"}
	s2.GangSize = 4
	s2.CacheDir = dir
	if _, err := s2.Fig10(); err != nil {
		t.Fatal(err)
	}
	computed, fromCache, _ = s2.Stats()
	if computed != 0 {
		t.Errorf("gang rerun computed %d cells over a warm cache", computed)
	}
	if fromCache == 0 {
		t.Error("gang rerun hit nothing in the cache")
	}
}

// TestRunGangCellsCrossPrefetcher is the cross-prefetcher differential:
// cells mixing every platform (and the "" shorthand for opts.Prefetcher)
// in one gang must each match a serial Run under that cell's platform.
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
	if window != cpu.DefaultGangWindow {
		t.Errorf("default-heuristic run reported window %d, want %d", window, cpu.DefaultGangWindow)
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
			t.Errorf("cell %d (%s/%s): gang %+v != serial %+v", i, c.Scheme, c.Prefetcher, res[i], want)
		}
	}
}

// TestRunGangCellsPartialErrors: a bad scheme and a bad prefetcher each
// error in their own slot; the surviving cells still run and match serial.
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

// TestRunGangCellsWindowSelection pins the window plumbing: 0 runs the
// fixed heuristic, a positive value is used verbatim, and AutoGangWindow
// resolves to MeasuredGangWindow — with results byte-identical across all
// three, the end-to-end fact behind `-gang-window auto`.
func TestRunGangCellsWindowSelection(t *testing.T) {
	prof, _ := workload.ByName("media-streaming")
	w := Prepare(prof, 40_000)
	cells := []GangCell{
		{Scheme: "lru", Prefetcher: "none"},
		{Scheme: "acic", Prefetcher: "fdp"},
	}
	run := func(gw int) ([]cpu.Result, int) {
		opts := DefaultOptions()
		opts.GangWindow = gw
		res, window, errs := RunGangCells(w, cells, opts)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("GangWindow=%d cell %d: %v", gw, i, err)
			}
		}
		return res, window
	}
	fixedRes, fixedWin := run(0)
	if fixedWin != cpu.DefaultGangWindow {
		t.Errorf("GangWindow=0 ran window %d, want %d", fixedWin, cpu.DefaultGangWindow)
	}
	pinnedRes, pinnedWin := run(4096)
	if pinnedWin != 4096 {
		t.Errorf("GangWindow=4096 ran window %d", pinnedWin)
	}
	autoRes, autoWin := run(AutoGangWindow)
	if autoWin < cpu.DefaultGangWindow || autoWin > cpu.MaxGangWindow {
		t.Errorf("auto window %d outside [%d,%d]", autoWin, cpu.DefaultGangWindow, cpu.MaxGangWindow)
	}
	for i := range cells {
		if fixedRes[i] != pinnedRes[i] || fixedRes[i] != autoRes[i] {
			t.Errorf("cell %d results differ across windows: fixed %+v pinned %+v auto %+v",
				i, fixedRes[i], pinnedRes[i], autoRes[i])
		}
	}
}

// TestMeasuredGangWindow pins the budget → window derivation against
// pinned host budgets: a starved budget floors at the fixed heuristic, a
// huge one caps at MaxGangWindow, and the floor guarantees auto never
// rotates more often than the fixed default.
func TestMeasuredGangWindow(t *testing.T) {
	prof, _ := workload.ByName("media-streaming")
	w := Prepare(prof, 40_000)
	var subs []icache.Subsystem
	for _, scheme := range []string{"lru", "acic", "opt"} {
		sub, err := NewSampledScheme(scheme, w, cpu.SampleConfig{})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}

	t.Setenv("ACIC_LLC_BYTES", "1M")
	if got := MeasuredGangWindow(w.Prog, subs); got != cpu.DefaultGangWindow {
		t.Errorf("starved budget: window %d, want the %d floor", got, cpu.DefaultGangWindow)
	}
	t.Setenv("ACIC_LLC_BYTES", "8G")
	if got := MeasuredGangWindow(w.Prog, subs); got != cpu.MaxGangWindow {
		t.Errorf("huge budget: window %d, want the %d cap", got, cpu.MaxGangWindow)
	}
	t.Setenv("ACIC_LLC_BYTES", "")
	if got := MeasuredGangWindow(w.Prog, subs); got < cpu.DefaultGangWindow || got > cpu.MaxGangWindow {
		t.Errorf("detected budget: window %d outside [%d,%d]", got, cpu.DefaultGangWindow, cpu.MaxGangWindow)
	}
	if got := GangWindowEstimate(w, 10); got < cpu.DefaultGangWindow || got > cpu.MaxGangWindow {
		t.Errorf("GangWindowEstimate = %d outside [%d,%d]", got, cpu.DefaultGangWindow, cpu.MaxGangWindow)
	}
}

// TestPackChunks pins the occupancy packer: ceil baselines, widest-first
// splitting while idle slots remain, and the all-singles stop.
func TestPackChunks(t *testing.T) {
	cases := []struct {
		name           string
		sizes          []int
		gangSize, idle int
		want           []int
	}{
		{"saturated pool keeps minimum", []int{7, 3}, 4, 0, []int{2, 1}},
		{"one idle slot splits the widest", []int{7, 3}, 4, 4, []int{3, 1}},
		{"splitting stops at all-singles", []int{7, 3}, 4, 100, []int{7, 3}},
		{"singles cannot split further", []int{2, 1}, 1, 100, []int{2, 1}},
		{"empty plan", nil, 4, 8, []int{}},
	}
	for _, c := range cases {
		got := packChunks(c.sizes, c.gangSize, c.idle)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: packChunks(%v, %d, %d) = %v, want %v",
				c.name, c.sizes, c.gangSize, c.idle, got, c.want)
		}
	}
}

// TestSplitBalanced pins the chunker: contiguous, order-preserving, sizes
// within one of each other, degenerate part counts clamped.
func TestSplitBalanced(t *testing.T) {
	batch := make([]Cell, 5)
	for i := range batch {
		batch[i] = Cell{App: "a", Scheme: fmt.Sprintf("s%d", i)}
	}
	for _, parts := range []int{0, 1, 2, 3, 5, 9} {
		out := splitBalanced(batch, parts)
		wantParts := parts
		if wantParts < 1 {
			wantParts = 1
		}
		if wantParts > len(batch) {
			wantParts = len(batch)
		}
		if len(out) != wantParts {
			t.Errorf("parts=%d: got %d chunks, want %d", parts, len(out), wantParts)
		}
		var flat []Cell
		min, max := len(batch), 0
		for _, chunk := range out {
			flat = append(flat, chunk...)
			if len(chunk) < min {
				min = len(chunk)
			}
			if len(chunk) > max {
				max = len(chunk)
			}
		}
		if max-min > 1 {
			t.Errorf("parts=%d: chunk sizes spread %d..%d", parts, min, max)
		}
		for i := range flat {
			if flat[i] != batch[i] {
				t.Fatalf("parts=%d: order not preserved at %d", parts, i)
			}
		}
	}
}

// crossPfSlice renders the two cross-prefetcher tables under the given
// gang size and window, returning the exact bytes and the suite (for its
// gang statistics).
func crossPfSlice(t *testing.T, gangSize, gangWindow int) (string, *Suite) {
	t.Helper()
	s := NewSuite(30_000)
	s.Apps = []string{"media-streaming", "sibench"}
	s.Workers = 2
	s.GangSize = gangSize
	s.GangWindow = gangWindow
	t1, err := s.PrefetcherBaselines()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.PrefetchAware()
	if err != nil {
		t.Fatal(err)
	}
	return t1.String() + t2.String(), s
}

// TestSuiteCrossPrefetcherGangIdentical pins the tentpole end to end: the
// prefetcher-sweep tables are byte-identical with gangs off, with
// cross-prefetcher gangs under the fixed window, and under the measured
// auto window — and the gang plan actually mixes platforms in one gang.
func TestSuiteCrossPrefetcherGangIdentical(t *testing.T) {
	serial, _ := crossPfSlice(t, 0, 0)
	fixed, sf := crossPfSlice(t, 4, 0)
	if fixed != serial {
		t.Errorf("fixed-window gang output diverges:\n--- per-cell ---\n%s--- gang ---\n%s", serial, fixed)
	}
	gs := sf.GangStats()
	if gs.Gangs == 0 || gs.Cells == 0 {
		t.Fatalf("gang run recorded no gangs: %+v", gs)
	}
	if gs.Mixed == 0 {
		t.Errorf("no gang spanned >1 prefetcher platform: %+v", gs)
	}
	if gs.MaxWidth < 2 || gs.MaxWidth > 4 {
		t.Errorf("max gang width %d outside (1,GangSize]", gs.MaxWidth)
	}
	if gs.Window != int64(cpu.DefaultGangWindow) {
		t.Errorf("fixed-window stats report window %d, want %d", gs.Window, cpu.DefaultGangWindow)
	}

	auto, sa := crossPfSlice(t, 4, AutoGangWindow)
	if auto != serial {
		t.Errorf("auto-window gang output diverges:\n--- per-cell ---\n%s--- gang ---\n%s", serial, auto)
	}
	if w := sa.GangStats().Window; w < int64(cpu.DefaultGangWindow) || w > int64(cpu.MaxGangWindow) {
		t.Errorf("auto window %d outside [%d,%d]", w, cpu.DefaultGangWindow, cpu.MaxGangWindow)
	}
}

// TestSuiteGangAccounting: gang execution must keep the engine's computed
// counter per cell (not per gang) and report every cell through Progress.
func TestSuiteGangAccounting(t *testing.T) {
	s := NewSuite(30_000)
	s.Apps = []string{"media-streaming", "sibench"}
	s.GangSize = 5
	var progress atomic.Int64
	s.Progress = func(done, total int, label string) { progress.Add(1) }
	if _, err := s.Fig10(); err != nil {
		t.Fatal(err)
	}
	computed, fromCache, workloads := s.Stats()
	want := int64(2 * (1 + len(Fig10Schemes)))
	if computed != want {
		t.Errorf("computed %d cells, want %d", computed, want)
	}
	if fromCache != 0 {
		t.Errorf("fromCache = %d without a cache dir", fromCache)
	}
	if workloads != 2 {
		t.Errorf("prepared %d workloads, want 2", workloads)
	}
	if progress.Load() != computed {
		t.Errorf("progress reported %d cells, want %d", progress.Load(), computed)
	}
}

// TestSuiteInstrumentEveryPath: Suite.Instrument sees the subsystem that
// produces each cell's result on the serial path, the gang path and the
// degrade ladder's serial reruns, so the last call for a cell is always
// the run that counted. The poisoned run's hook panics inside the gang
// after instrumenting an earlier member: that member's first subsystem
// never simulates, and the rerun instruments it again.
func TestSuiteInstrumentEveryPath(t *testing.T) {
	const app = "media-streaming"
	cells := CrossCells([]string{app}, []string{"acic", "lru", "opt"}, "fdp")
	acic := cells[0]
	decisions := func(sub icache.Subsystem) uint64 { return sub.(*icache.Complex).ACIC().Decisions }
	var want []cpu.Result
	var wantDecisions uint64
	for _, tc := range []struct {
		name      string
		gangSize  int
		poison    bool
		wantCalls []int // per cell of cells
	}{
		{"serial", 0, false, []int{1, 1, 1}},
		{"gang", 3, false, []int{1, 1, 1}},
		{"degraded", 3, true, []int{2, 2, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSuite(20_000)
			s.Apps = []string{app}
			s.Workers = 1 // one pool slot: the three cells pack into one gang
			s.GangSize = tc.gangSize
			var mu sync.Mutex
			calls := map[Cell]int{}
			first := map[Cell]icache.Subsystem{}
			last := map[Cell]icache.Subsystem{}
			s.Instrument = func(c Cell, sub icache.Subsystem) {
				mu.Lock()
				calls[c]++
				n := calls[c]
				if n == 1 {
					first[c] = sub
				}
				last[c] = sub
				mu.Unlock()
				if tc.poison && n == 1 && c.Scheme == "lru" {
					panic("poisoned gang member")
				}
			}
			if err := s.Require(cells...); err != nil {
				t.Fatal(err)
			}
			var got []cpu.Result
			for i, c := range cells {
				if calls[c] != tc.wantCalls[i] {
					t.Errorf("%v instrumented %d times, want %d", c, calls[c], tc.wantCalls[i])
				}
				got = append(got, s.res(c.App, c.Scheme, c.Prefetcher))
			}
			if gs, fs := s.GangStats(), s.FaultStats(); gs.Gangs+fs.GangDegraded != int64(min(tc.gangSize, 1)) || tc.poison != (fs.GangDegraded == 1) {
				t.Errorf("%d gangs ran and %d degraded, want one gang (poisoned: %v)", gs.Gangs, fs.GangDegraded, tc.poison)
			}
			if last[acic] == nil {
				t.Fatal("the acic cell was never instrumented")
			}
			d := decisions(last[acic])
			if d == 0 {
				t.Fatal("the last instrumented acic subsystem recorded no decisions")
			}
			if tc.poison && decisions(first[acic]) != 0 {
				t.Error("the dead gang's acic subsystem simulated")
			}
			if want == nil {
				want, wantDecisions = got, d
				return
			}
			if d != wantDecisions {
				t.Errorf("acic decisions = %d, serial run saw %d", d, wantDecisions)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%v: result diverges from the serial run", cells[i])
				}
			}
		})
	}
}
