package distrib

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"acic/internal/experiments"
	"acic/internal/experiments/engine"
	"acic/internal/faults"
)

// testExperiments is the render subset the determinism tests diff: two
// Require-grid experiments (the distributed path) plus a static table (a
// pure-local render that must be untouched by distribution).
var testExperiments = []string{"table3", "fig10", "fig11"}

const (
	testN     = 30_000
	testApps  = "media-streaming,web-search"
	testWidth = 2 // per-process pool width, workers and coordinator alike
)

// testConfig is the run every distrib test renders: coordinator-side,
// worker-side (over the wire) and in the single-process reference.
func testConfig() experiments.Config {
	return experiments.Config{N: testN, Apps: strings.Split(testApps, ","), Workers: testWidth}
}

// newTestGrid wires the full distributed fixture: a scratch store and a
// coordinator served from one httptest listener (the same one-URL layout
// acic-coord uses), and a coordinator-side Suite of cfg whose Remote is
// the coordinator and whose stores are the local view of the shared root.
func newTestGrid(t *testing.T, cfg experiments.Config, opts CoordinatorOptions) (*experiments.Suite, *Coordinator, string) {
	t.Helper()
	storeDir := t.TempDir()
	storeHandler, err := engine.NewStoreHandler(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", storeHandler)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	cfg.CacheDir, cfg.ArtifactDir = storeDir, storeDir
	s := &experiments.Suite{Config: cfg}
	// The coordinator advertises the shared listener as the store.
	opts.StoreURL = srv.URL
	coord := NewCoordinator(s, opts)
	t.Cleanup(coord.Close)
	if err := s.CacheError(); err != nil {
		t.Fatal(err)
	}
	mux.Handle("/api/", coord.Handler())
	return s, coord, srv.URL
}

// renderAll runs the test experiment subset and concatenates their
// printed output — the byte-identity unit the tests diff.
func renderAll(t *testing.T, s *experiments.Suite) string {
	t.Helper()
	var sb strings.Builder
	for _, e := range experiments.Registry() {
		for _, want := range testExperiments {
			if e.Slug != want {
				continue
			}
			out, err := e.Run(s)
			if err != nil {
				// Errorf, not Fatalf: renderAll runs on background
				// goroutines in the requeue test, where Goexit would
				// strand the channel receive.
				t.Errorf("%s: %v", e.Slug, err)
				continue
			}
			fmt.Fprintf(&sb, "=== %s\n%s\n", e.Slug, out)
		}
	}
	return sb.String()
}

// localReference renders the subset on a plain single-process suite of
// cfg with no store at all.
func localReference(t *testing.T, cfg experiments.Config) string {
	t.Helper()
	return renderAll(t, &experiments.Suite{Config: cfg})
}

// TestDistributedByteIdentical is the tentpole invariant: the rendered
// output of a distributed run — 1, 2, and 4 workers, each a cold shared
// store — is byte-identical to single-process execution.
func TestDistributedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-lane simulation grids")
	}
	want := localReference(t, testConfig())
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, coord, url := newTestGrid(t, testConfig(), CoordinatorOptions{Lease: 30 * time.Second})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					err := RunWorker(ctx, WorkerOptions{Coord: url, Workers: testWidth, Name: fmt.Sprintf("w%d", i)})
					if err != nil && ctx.Err() == nil {
						t.Errorf("worker %d: %v", i, err)
					}
				}(i)
			}
			got := renderAll(t, s)
			coord.Close() // workers see Done and exit
			wg.Wait()
			if got != want {
				t.Errorf("distributed output at %d workers differs from single-process\n--- got ---\n%s--- want ---\n%s", workers, got, want)
			}
			if st := coord.Stats(); st.Completed == 0 {
				t.Errorf("no cells completed remotely (stats %+v) — the grid ran locally", st)
			}
		})
	}
}

// TestWireConfigSampled pins that the one Config crosses GET /api/config
// whole: a worker of a sampled, app-restricted coordinator suite builds
// a suite with the coordinator's GridKey, completes cells remotely, and
// the distributed render is byte-identical to a local sampled suite.
func TestWireConfigSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	cfg := experiments.Config{N: testN, Apps: []string{"web-search"}, SampleSets: 8, Workers: testWidth}
	s, coord, url := newTestGrid(t, cfg, CoordinatorOptions{Lease: 30 * time.Second})

	// The body carries the result-determining fields and the store, under
	// their wire names; the coordinator's own pool width and store paths
	// stay local.
	resp, err := http.Get(url + "/api/config")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]any{"n": float64(testN), "apps": []any{"web-search"}, "sample_sets": float64(8),
		"store_url": url}; !reflect.DeepEqual(body, want) {
		t.Errorf("GET /api/config = %v, want %v", body, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wire, err := newClient(url).config()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := workerSuite(ctx, wire, testWidth).GridKey(), s.GridKey(); got != want {
		t.Fatalf("worker GridKey %s, coordinator %s (wire config %+v)", got, want, wire)
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := RunWorker(ctx, WorkerOptions{Coord: url, Workers: testWidth, Name: fmt.Sprintf("w%d", i)})
			if err != nil && ctx.Err() == nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	got := renderAll(t, s)
	coord.Close()
	wg.Wait()
	if st := coord.Stats(); st.Completed == 0 {
		t.Errorf("no cells completed remotely (stats %+v) — the grid ran locally", st)
	}
	if want := localReference(t, cfg); got != want {
		t.Errorf("sampled distributed output differs from a local sampled suite\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWorkerDeathRequeues pins the lease ladder: a worker that claims a
// batch and vanishes must not lose the work — the lease expires, the
// batch requeues under a fresh ID, a healthy worker finishes it, and the
// output is still byte-identical. The zombie's late completion (stale
// ID) must be ignored.
func TestWorkerDeathRequeues(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	s, coord, url := newTestGrid(t, testConfig(), CoordinatorOptions{Lease: 300 * time.Millisecond})

	// Render in the background; the grid blocks until workers (or the
	// ladder) produce every cell.
	outCh := make(chan string, 1)
	go func() { outCh <- renderAll(t, s) }()

	// The zombie steals one batch and never reports it.
	var zombie Batch
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := coord.Claim(ClaimRequest{Worker: "zombie", Want: 1})
		if len(resp.Batches) > 0 {
			zombie = resp.Batches[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no batch ever became claimable")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A healthy worker joins after the zombie's lease has begun.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunWorker(ctx, WorkerOptions{Coord: url, Workers: testWidth, Name: "healthy"}); err != nil && ctx.Err() == nil {
			t.Errorf("healthy worker: %v", err)
		}
	}()

	got := <-outCh
	// Late completion for the stale lease: must be a no-op, the cells
	// were already settled by the requeued copy.
	coord.Complete(CompleteRequest{Worker: "zombie", BatchID: zombie.ID,
		Results: []CellResult{{Cell: zombie.Cells[0]}}})
	coord.Close()
	wg.Wait()

	if want := localReference(t, testConfig()); got != want {
		t.Errorf("output after worker death differs from single-process\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if st := coord.Stats(); st.Requeued < 1 {
		t.Errorf("zombie batch was never requeued (stats %+v)", st)
	}
}

// TestNoWorkerFallsBackLocal pins liveness with zero workers: under
// NoWorkerTimeout the queued batches fail transiently back into the
// Suite, which computes every cell locally — the run
// finishes, merely without speedup.
func TestNoWorkerFallsBackLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	s, coord, _ := newTestGrid(t, testConfig(), CoordinatorOptions{
		Lease:           time.Second,
		NoWorkerTimeout: 200 * time.Millisecond,
	})
	got := renderAll(t, s)
	if want := localReference(t, testConfig()); got != want {
		t.Errorf("local-fallback output differs from single-process\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if st := coord.Stats(); st.LocalFell == 0 {
		t.Errorf("no cells fell back locally (stats %+v)", st)
	}
}

// TestSubmitAfterCloseFailsLocal: a batch submitted to a closed
// coordinator can never be claimed, so each of its cells must fail back
// to the suite at once, transiently, instead of waiting forever.
func TestSubmitAfterCloseFailsLocal(t *testing.T) {
	coord := NewCoordinator(&experiments.Suite{Config: testConfig()}, CoordinatorOptions{})
	coord.Close()
	cells := experiments.CrossCells([]string{"media-streaming"}, []string{"lru", "acic"}, "fdp")
	errs := make(chan error, len(cells))
	coord.Submit("media-streaming", cells, func(_ experiments.Cell, err error) { errs <- err })
	for range cells {
		select {
		case err := <-errs:
			if !engine.IsTransient(err) {
				t.Errorf("cell failed back with %v, want a transient error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("batch submitted after Close never settled")
		}
	}
	if st := coord.Stats(); st.LocalFell != int64(len(cells)) || st.Batches != 0 {
		t.Errorf("stats %+v, want %d cells fallen back and no batch queued", st, len(cells))
	}
}

// TestNetErrFaultedRunStaysIdentical wires the net-err satellite end to
// end: with injected network faults hitting both the store client and the
// protocol client, the distributed run must still complete with output
// byte-identical to a fault-free single-process run — net-errs are
// absorbed as store misses and transient protocol retries.
func TestNetErrFaultedRunStaysIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	s, coord, url := newTestGrid(t, testConfig(), CoordinatorOptions{Lease: 5 * time.Second})
	if err := faults.Install("net-err:p=0.05;seed=11"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { faults.Install("") })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := RunWorker(ctx, WorkerOptions{Coord: url, Workers: testWidth, Name: fmt.Sprintf("w%d", i)})
			if err != nil && ctx.Err() == nil {
				// A worker may legitimately die when injected net-errs
				// exhaust its claim budget; the grid must survive it.
				t.Logf("worker %d gave up: %v", i, err)
			}
		}(i)
	}
	got := renderAll(t, s)
	coord.Close()
	wg.Wait()
	snap := faults.Snapshot()
	faults.Install("")

	if want := localReference(t, testConfig()); got != want {
		t.Errorf("net-err-faulted output differs from single-process\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if snap.NetErrs == 0 {
		t.Error("fault spec was installed but no net-err ever fired")
	}
}
