package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"acic/internal/api"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
	"acic/internal/faults"
	"acic/internal/workload"
)

const (
	testN    = 12_000
	testApp  = "media-streaming"
	testApp2 = "sibench"
)

// newTestSuite builds a suite with the fixed test configuration; every
// suite built here is byte-identical to every other, which is what the
// serve-vs-CLI diffs rely on.
func newTestSuite(t testing.TB) *experiments.Suite {
	t.Helper()
	s := experiments.NewSuite(testN)
	s.Apps = []string{testApp, testApp2}
	s.Workers = 2
	if err := s.CacheError(); err != nil {
		t.Fatal(err)
	}
	return s
}

// newTestServer wires a server over a fresh test suite and serves it
// from an httptest listener.
func newTestServer(t *testing.T, breaker *engine.Breaker, faultBudget int64) (*server, string) {
	t.Helper()
	if breaker == nil {
		breaker = engine.NewBreaker(0, 0)
	}
	srv := newServer(newTestSuite(t), breaker, faultBudget)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

func get(t *testing.T, url string, headers ...string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func body(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeFiguresByteIdentical is the tentpole invariant: for every
// registry experiment, the /v1/figures/{slug} body equals the output
// e.Run produces on an identically-configured local suite — the daemon
// adds transport, never bytes.
func TestServeFiguresByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry simulation grid")
	}
	ref := newTestSuite(t)
	_, url := newTestServer(t, nil, 0)
	for _, e := range experiments.Registry() {
		want, err := e.Run(ref)
		if err != nil {
			t.Fatalf("reference %s: %v", e.Slug, err)
		}
		resp := get(t, url+"/v1/figures/"+e.Slug)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/figures/%s = %s", e.Slug, resp.Status)
		}
		if got := body(t, resp); got != want {
			t.Errorf("%s: served bytes differ from CLI render\n--- got ---\n%s--- want ---\n%s", e.Slug, got, want)
		}
	}
}

// TestServeFigureETag304: a warm re-query with the figure's ETag costs
// no render — 304, empty body.
func TestServeFigureETag304(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	srv, url := newTestServer(t, nil, 0)
	resp := get(t, url+"/v1/figures/table3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first GET = %s", resp.Status)
	}
	etag := resp.Header.Get("ETag")
	body(t, resp)
	if etag == "" {
		t.Fatal("no ETag on figure response")
	}
	computed, _, _ := srv.suite.Stats()
	resp = get(t, url+"/v1/figures/table3", "If-None-Match", etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET = %s, want 304", resp.Status)
	}
	if b := body(t, resp); b != "" {
		t.Errorf("304 carried a body: %q", b)
	}
	if after, _, _ := srv.suite.Stats(); after != computed {
		t.Errorf("304 re-query computed %d new cells", after-computed)
	}
}

// TestServeCellsETag304: same contract on the cells endpoint, plus the
// response echoes its ETag in the JSON body.
func TestServeCellsETag304(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	_, url := newTestServer(t, nil, 0)
	q := url + "/v1/cells?app=" + testApp + "&scheme=lru,acic"
	resp := get(t, q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET cells = %s", resp.Status)
	}
	etag := resp.Header.Get("ETag")
	var cr api.CellsResponse
	if err := json.Unmarshal([]byte(body(t, resp)), &cr); err != nil {
		t.Fatal(err)
	}
	if etag == "" || cr.ETag != etag {
		t.Fatalf("ETag header %q vs body %q", etag, cr.ETag)
	}
	if len(cr.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cr.Cells))
	}
	for _, c := range cr.Cells {
		if c.Error != nil {
			t.Fatalf("cell %s failed: %+v", c.Cell, c.Error)
		}
		if c.Key == "" || len(c.Result) == 0 {
			t.Fatalf("cell %s has no key/result", c.Cell)
		}
	}
	resp = get(t, q, "If-None-Match", etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET = %s, want 304", resp.Status)
	}
	body(t, resp)
}

// TestServeCellsCoalesce: concurrent identical cell queries coalesce
// through the suite's per-cell singleflight — the simulation runs once,
// every response carries the same result.
func TestServeCellsCoalesce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	srv, url := newTestServer(t, nil, 0)
	q := url + "/v1/cells?app=" + testApp + "&scheme=lru"
	const clients = 8
	bodies := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(q)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: %s", i, resp.Status)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			bodies[i] = string(b)
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("client %d saw different bytes", i)
		}
	}
	if computed, _, _ := srv.suite.Stats(); computed != 1 {
		t.Errorf("computed %d cells for %d identical queries, want 1", computed, clients)
	}
}

// TestServeBreakerTripsOnDeterministicCell: a registered cell that fails
// deterministically (its suite's context is cancelled, so the cell fails
// with the context error) trips its key after the threshold; further
// queries answer circuit_open without touching the engine, and the
// cooldown admits a probe. A cell naming an unknown scheme fails as
// deterministically but never trips, since it leaves no breaker entry
// (TestServeCellsUnknownAppsBounded).
func TestServeBreakerTripsOnDeterministicCell(t *testing.T) {
	breaker := engine.NewBreaker(2, time.Hour)
	suite := newTestSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	suite.Context = ctx
	ts := httptest.NewServer(newServer(suite, breaker, 0).handler())
	t.Cleanup(ts.Close)
	q := ts.URL + "/v1/cells?app=" + testApp + "&scheme=lru"
	codes := make([]string, 3)
	for i := range codes {
		resp := get(t, q)
		var cr api.CellsResponse
		if err := json.Unmarshal([]byte(body(t, resp)), &cr); err != nil {
			t.Fatal(err)
		}
		if len(cr.Cells) != 1 || cr.Cells[0].Error == nil {
			t.Fatalf("query %d: expected one failed cell, got %+v", i, cr.Cells)
		}
		codes[i] = cr.Cells[0].Error.Code
	}
	if codes[0] != api.CodeCellError || codes[1] != api.CodeCellError {
		t.Errorf("pre-trip codes = %v, want cell_error", codes[:2])
	}
	if codes[2] != api.CodeCircuitOpen {
		t.Errorf("post-trip code = %q, want %q", codes[2], api.CodeCircuitOpen)
	}
	if n := breaker.OpenCount(); n != 1 {
		t.Errorf("OpenCount = %d, want 1", n)
	}
}

// TestServeFigureBreaker: figures trip the same way — a registry slug
// whose render fails deterministically (unknown workload in Apps) opens
// the exp: key and later queries get 503 circuit_open.
func TestServeFigureBreaker(t *testing.T) {
	s := experiments.NewSuite(testN)
	s.Apps = []string{"no-such-app"}
	s.Workers = 1
	srv := newServer(s, engine.NewBreaker(1, time.Hour), 0)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	resp := get(t, ts.URL+"/v1/figures/table3")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("broken figure = %s, want 500", resp.Status)
	}
	var env api.Envelope
	if err := json.Unmarshal([]byte(body(t, resp)), &env); err != nil {
		t.Fatal(err)
	}
	if env.Err == nil || env.Err.Code != api.CodeCellError {
		t.Fatalf("broken figure envelope = %+v", env.Err)
	}

	resp = get(t, ts.URL+"/v1/figures/table3")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tripped figure = %s, want 503", resp.Status)
	}
	if err := json.Unmarshal([]byte(body(t, resp)), &env); err != nil {
		t.Fatal(err)
	}
	if env.Err == nil || env.Err.Code != api.CodeCircuitOpen {
		t.Fatalf("tripped figure envelope = %+v", env.Err)
	}
}

// TestServeFaultBudget: with heavy injected faults and a one-recovery
// budget, the request is refused with fault_budget_exhausted rather
// than silently absorbing unbounded recovery work.
func TestServeFaultBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted simulation")
	}
	if err := faults.Install("panic-cell:every=2;seed=3"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { faults.Install("") })
	_, url := newTestServer(t, nil, 1)
	resp := get(t, url+"/v1/cells?app="+testApp+","+testApp2+"&scheme=lru,acic,opt")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted request = %s, want 503", resp.Status)
	}
	var env api.Envelope
	if err := json.Unmarshal([]byte(body(t, resp)), &env); err != nil {
		t.Fatal(err)
	}
	if env.Err == nil || env.Err.Code != api.CodeFaultBudget || !env.Err.Transient {
		t.Fatalf("fault-budget envelope = %+v", env.Err)
	}
	// The engine still recovered: once the injector is gone, the same
	// query succeeds from the warm memo.
	faults.Install("")
	resp = get(t, url+"/v1/cells?app="+testApp+","+testApp2+"&scheme=lru,acic,opt")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault request = %s, want 200; body: %s", resp.Status, body(t, resp))
	}
	body(t, resp)
}

// TestServeExperimentsMatchesRegistry: /v1/experiments serves exactly
// the registry slugs, in order.
func TestServeExperimentsMatchesRegistry(t *testing.T) {
	_, url := newTestServer(t, nil, 0)
	resp := get(t, url+"/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET experiments = %s", resp.Status)
	}
	var er api.ExperimentsResponse
	if err := json.Unmarshal([]byte(body(t, resp)), &er); err != nil {
		t.Fatal(err)
	}
	reg := experiments.Registry()
	if len(er.Experiments) != len(reg) {
		t.Fatalf("served %d experiments, registry has %d", len(er.Experiments), len(reg))
	}
	for i, e := range reg {
		if er.Experiments[i].Slug != e.Slug || er.Experiments[i].Description != e.Desc {
			t.Errorf("entry %d = %+v, want {%s %s}", i, er.Experiments[i], e.Slug, e.Desc)
		}
	}
}

// TestServeErrorEnvelopes pins the error contract across the endpoints:
// unknown figures 404, missing or oversized cell queries 400, wrong verbs
// 405, unversioned paths 404 — all api.Envelope with the right code.
func TestServeErrorEnvelopes(t *testing.T) {
	_, url := newTestServer(t, nil, 0)
	cases := []struct {
		method, path string
		wantStatus   int
		wantCode     string
	}{
		{http.MethodGet, "/v1/figures/no-such-figure", http.StatusNotFound, api.CodeNotFound},
		{http.MethodGet, "/v1/cells", http.StatusBadRequest, api.CodeBadRequest},
		{http.MethodGet, "/v1/cells?scheme=lru", http.StatusBadRequest, api.CodeBadRequest},
		{http.MethodGet, "/v1/cells?app=" + testApp + "&scheme=" + strings.Repeat("lru,", maxCells()+1), http.StatusBadRequest, api.CodeBadRequest},
		{http.MethodPost, "/v1/experiments", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},
		{http.MethodGet, "/api/config", http.StatusNotFound, api.CodeNotFound},
		{http.MethodGet, "/", http.StatusNotFound, api.CodeNotFound},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, url+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
		var env api.Envelope
		if err := json.Unmarshal([]byte(body(t, resp)), &env); err != nil {
			t.Fatalf("%s %s: body is not an envelope: %v", tc.method, tc.path, err)
		}
		if env.Err == nil || env.Err.Code != tc.wantCode {
			t.Errorf("%s %s code = %+v, want %s", tc.method, tc.path, env.Err, tc.wantCode)
		}
	}
}

// TestServeHealthzAndStats: the two observability endpoints answer with
// the versioned shapes.
func TestServeHealthzAndStats(t *testing.T) {
	_, url := newTestServer(t, nil, 0)
	var h api.Health
	if err := json.Unmarshal([]byte(body(t, get(t, url+"/v1/healthz"))), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != api.Version {
		t.Errorf("healthz = %+v", h)
	}
	var st statsBody
	if err := json.Unmarshal([]byte(body(t, get(t, url+"/v1/stats"))), &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != api.Version || st.N != testN || st.Requests < 1 {
		t.Errorf("stats = %+v", st)
	}
	var fs experiments.FaultStats
	if err := json.Unmarshal(st.Faults, &fs); err != nil {
		t.Errorf("stats.faults is not a FaultStats: %v", err)
	}
}

// TestPreloadUnknownSlugFails: -preload validates slugs through the
// registry lookup instead of silently warming nothing.
func TestPreloadUnknownSlugFails(t *testing.T) {
	srv, _ := newTestServer(t, nil, 0)
	if err := runPreload(srv, "no-such-exp"); err == nil {
		t.Error("preload of an unknown slug succeeded")
	}
	if err := runPreload(srv, ""); err != nil {
		t.Errorf("empty preload: %v", err)
	}
}

// TestCellsQueryBound: a query may name up to maxCells cells, in
// prefetcher-major order with "all" expanded, and one more is refused
// before any cell is built.
func TestCellsQueryBound(t *testing.T) {
	suiteApps := []string{testApp, testApp2}
	cells, qerr := cellsQuery(url.Values{"app": {"all"}, "scheme": {"lru,acic"}, "prefetcher": {"none,fdp"}}, suiteApps)
	if qerr != nil {
		t.Fatal(qerr)
	}
	want := append(experiments.CrossCells(suiteApps, []string{"lru", "acic"}, "none"),
		experiments.CrossCells(suiteApps, []string{"lru", "acic"}, "fdp")...)
	if !slices.Equal(cells, want) {
		t.Errorf("cells = %v, want %v", cells, want)
	}

	limit := maxCells()
	if want := len(workload.All()) * len(experiments.SchemeNames()) * len(experiments.Prefetchers()); limit != want {
		t.Fatalf("maxCells = %d, want %d (workloads x schemes x prefetchers)", limit, want)
	}
	schemes := strings.TrimSuffix(strings.Repeat("no-such-scheme,", limit), ",")
	if cells, qerr := cellsQuery(url.Values{"app": {testApp}, "scheme": {schemes}}, suiteApps); qerr != nil || len(cells) != limit {
		t.Errorf("query of exactly %d cells: %d cells, %v", limit, len(cells), qerr)
	}
	if cells, qerr := cellsQuery(url.Values{"app": {testApp + ",x"}, "scheme": {schemes}}, suiteApps); qerr == nil || qerr.Code != api.CodeBadRequest || cells != nil {
		t.Errorf("query of %d cells: %d cells, %v; want bad_request", 2*limit, len(cells), qerr)
	}
}

// FuzzCellsQuery feeds arbitrary query strings through the /v1/cells
// expansion: it never panics, refuses only with bad_request, and never
// returns more than maxCells cells.
func FuzzCellsQuery(f *testing.F) {
	for _, seed := range []string{
		"app=media-streaming&scheme=lru,acic",
		"app=all&scheme=all&prefetcher=fdp,none",
		"app=all&scheme=all&prefetcher=" + strings.Repeat("fdp,", 40),
		"app=a,,b&scheme=%20lru%20,&prefetcher=",
		"scheme=lru",
		"app=%zz&scheme=lru;app=x",
	} {
		f.Add(seed)
	}
	suiteApps := []string{testApp, testApp2}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as r.URL.Query(): malformed pairs are dropped
		cells, qerr := cellsQuery(q, suiteApps)
		if qerr != nil {
			if qerr.Code != api.CodeBadRequest || cells != nil {
				t.Fatalf("refused with %q and %d cells", qerr.Code, len(cells))
			}
			return
		}
		if len(cells) > maxCells() {
			t.Fatalf("%d cells, above the bound %d", len(cells), maxCells())
		}
	})
}
