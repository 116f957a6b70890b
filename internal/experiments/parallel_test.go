package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acic/internal/cpu"
	"acic/internal/faults"
	"acic/internal/icache"
)

// fig10Slice renders a small Fig10/Fig11 slice with the given worker
// count and returns the exact bytes a tool would print.
func fig10Slice(t *testing.T, workers int, cacheDir string) string {
	t.Helper()
	s := NewSuite(40_000)
	s.Apps = []string{"media-streaming", "sibench"}
	s.Workers = workers
	s.CacheDir = cacheDir
	t10, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	t11, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	return t10.String() + t11.String()
}

// TestParallelMatchesSerial asserts the engine's core promise: tables are
// byte-identical whether cells run one at a time or many at once. Run with
// -race this also exercises the worker pool, singleflight, and the shared
// workload artifacts under real concurrency.
func TestParallelMatchesSerial(t *testing.T) {
	serial := fig10Slice(t, 1, "")
	for _, workers := range []int{2, 8} {
		if got := fig10Slice(t, workers, ""); got != serial {
			t.Errorf("workers=%d output diverges from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				workers, serial, got)
		}
	}
}

// TestConcurrentRenderers drives several figure renderers against one
// suite from concurrent goroutines (as the bench harness does), checking
// the shared store under -race and that overlapping cell sets are
// deduplicated rather than recomputed.
func TestConcurrentRenderers(t *testing.T) {
	s := NewSuite(40_000)
	s.Apps = []string{"media-streaming", "sibench"}
	s.Workers = 4
	done := make(chan error, 3)
	go func() { _, err := s.Fig10(); done <- err }()
	go func() { _, err := s.Fig11(); done <- err }()
	go func() { _, err := s.Fig16(); done <- err }()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Fig10 and Fig11 share an identical plan; Fig16 shares its "acic"
	// cells and adds only "ifilter". The store must hold exactly the
	// deduplicated grid: 2 apps x (baseline + 12 Fig10 schemes + ifilter).
	computed, fromCache, workloads := s.Stats()
	if want := int64(2 * (2 + len(Fig10Schemes))); computed != want {
		t.Errorf("computed %d cells, want %d (dedup across renderers)", computed, want)
	}
	if fromCache != 0 {
		t.Errorf("fromCache = %d without a cache dir", fromCache)
	}
	if workloads != 2 {
		t.Errorf("prepared %d workloads, want 2", workloads)
	}
}

// TestMixedRenderersDoNotDeadlock drives a PrepareAll-based renderer
// (Fig13: workload batch + instrumented sweep) concurrently with
// Require-based renderers on a width-1 pool — the shape that deadlocks if
// a claimed-but-unstarted workload cell can be waited on by the tasks
// holding the pool's only slot.
func TestMixedRenderersDoNotDeadlock(t *testing.T) {
	for i := 0; i < 3; i++ {
		s := NewSuite(30_000)
		s.Apps = []string{"media-streaming", "sibench"}
		s.Workers = 1
		done := make(chan error, 3)
		go func() { _, err := s.Fig13(); done <- err }()
		go func() { _, err := s.Fig10(); done <- err }()
		go func() { _, err := s.Fig16(); done <- err }()
		for j := 0; j < 3; j++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(120 * time.Second):
				t.Fatal("mixed renderers deadlocked")
			}
		}
	}
}

// TestPersistentCacheMakesRerunsIncremental renders the same slice twice
// through one on-disk cache directory: the second suite must serve every
// cell from disk and still produce byte-identical output.
func TestPersistentCacheMakesRerunsIncremental(t *testing.T) {
	dir := t.TempDir()
	first := fig10Slice(t, 4, dir)

	s := NewSuite(40_000)
	s.Apps = []string{"media-streaming", "sibench"}
	s.Workers = 4
	s.CacheDir = dir
	var progressCalls atomic.Int64
	s.Progress = func(done, total int, label string) { progressCalls.Add(1) }
	t10, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	t11, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if got := t10.String() + t11.String(); got != first {
		t.Errorf("cached rerun output diverges:\n--- first ---\n%s--- rerun ---\n%s", first, got)
	}
	computed, fromCache, _ := s.Stats()
	if computed != 0 {
		t.Errorf("rerun computed %d cells, want 0 (all from disk)", computed)
	}
	if want := int64(2 * (1 + len(Fig10Schemes))); fromCache != want {
		t.Errorf("rerun served %d cells from cache, want %d", fromCache, want)
	}
	if progressCalls.Load() != fromCache {
		t.Errorf("progress reported %d cells, want %d", progressCalls.Load(), fromCache)
	}
}

// TestCacheKeySeparatesCells guards the persistent-cache key: distinct
// cells and trace lengths must never collide.
func TestCacheKeySeparatesCells(t *testing.T) {
	s := NewSuite(40_000)
	keys := map[string]Cell{}
	for _, c := range []Cell{
		{"media-streaming", "lru", "fdp"},
		{"media-streaming", "lru", "entangling"},
		{"media-streaming", "acic", "fdp"},
		{"sibench", "lru", "fdp"},
	} {
		k := s.cacheKey(c)
		if prev, dup := keys[k]; dup {
			t.Errorf("cells %v and %v share cache key %q", prev, c, k)
		}
		keys[k] = c
	}
	s2 := NewSuite(80_000)
	c := Cell{"media-streaming", "lru", "fdp"}
	if s.cacheKey(c) == s2.cacheKey(c) {
		t.Error("different trace lengths must not share cache keys")
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

// TestSuiteInstrumentEveryPath: Suite.Instrument sees the subsystem that
// produces each cell's result on a first attempt and on a retry, so the
// last call for a cell is always the run that counted. The poisoned run's
// hook raises an injected (transient) panic on the acic cell's first
// attempt: that subsystem never simulates, and the retry instruments the
// cell again.
func TestSuiteInstrumentEveryPath(t *testing.T) {
	const app = "media-streaming"
	cells := CrossCells([]string{app}, []string{"acic", "lru", "opt"}, "fdp")
	acic := cells[0]
	decisions := func(sub icache.Subsystem) uint64 { return sub.(*icache.Complex).ACIC().Decisions }
	var want []cpu.Result
	var wantDecisions uint64
	for _, tc := range []struct {
		name      string
		poison    bool
		wantCalls []int // per cell of cells
	}{
		{"serial", false, []int{1, 1, 1}},
		{"degraded", true, []int{2, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSuite(20_000)
			s.Apps = []string{app}
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
				if tc.poison && n == 1 && c == acic {
					panic(&faults.Injected{Site: "instrument", Key: c.String()})
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
			if fs := s.FaultStats(); tc.poison != (fs.Retries == 1) {
				t.Errorf("%d retries, want one only when poisoned (%v)", fs.Retries, tc.poison)
			}
			if last[acic] == nil {
				t.Fatal("the acic cell was never instrumented")
			}
			d := decisions(last[acic])
			if d == 0 {
				t.Fatal("the last instrumented acic subsystem recorded no decisions")
			}
			if tc.poison && decisions(first[acic]) != 0 {
				t.Error("the failed attempt's acic subsystem simulated")
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
