package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"acic/internal/api"
	"acic/internal/experiments/engine"
)

// cellsTarget is one single-cell query, the shape of a serve client's
// warm re-query.
const cellsTarget = "/v1/cells?app=" + testApp + "&prefetcher=fdp&scheme=acic"

// warmHandler returns the handler of a server whose suite has already
// answered cellsTarget once, and that answer's ETag.
func warmHandler(tb testing.TB) (http.Handler, string) {
	tb.Helper()
	h := newServer(newTestSuite(tb), engine.NewBreaker(0, 0), 0).handler()
	rec := serveOne(h, cellsTarget, "")
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET %s = %d: %s", cellsTarget, rec.Code, rec.Body)
	}
	return h, rec.Header().Get("ETag")
}

// serveOne answers one GET in process, with If-None-Match set when etag
// is not empty.
func serveOne(h http.Handler, target, etag string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// BenchmarkServeCells measures one /v1/cells request in process, request
// and recorder included, against a warm suite: "warm" answers 200 with
// the body, "304" revalidates with the ETag the warm answer carried.
func BenchmarkServeCells(b *testing.B) {
	h, etag := warmHandler(b)
	for _, bc := range []struct {
		name, etag string
		status     int
	}{{"warm", "", http.StatusOK}, {"304", etag, http.StatusNotModified}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if rec := serveOne(h, cellsTarget, bc.etag); rec.Code != bc.status {
					b.Fatalf("status %d, want %d", rec.Code, bc.status)
				}
			}
		})
	}
}

// TestServeCellsRequestAllocs guards the warm and 304 request paths: a
// request whose answer is settled does per-request work only — no profile
// hashing, no registry rebuild, no result re-encoding. The bounds count a
// whole in-process request, httptest request and recorder included.
func TestServeCellsRequestAllocs(t *testing.T) {
	h, etag := warmHandler(t)
	for _, tc := range []struct {
		name, etag string
		status     int
		max        float64
	}{{"warm", "", http.StatusOK, 39}, {"304", etag, http.StatusNotModified, 33}} {
		var status int
		allocs := testing.AllocsPerRun(100, func() { status = serveOne(h, cellsTarget, tc.etag).Code })
		if status != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, status, tc.status)
		}
		if allocs > tc.max {
			t.Errorf("%s request: %.0f allocs, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}

// TestServeCellsUnknownAppsBounded sends 1,000 distinct unregistered app
// names: each answers with a per-cell error, and none leaves a settled
// entry behind, so the per-cell map stays within maxCells however many
// names clients invent.
func TestServeCellsUnknownAppsBounded(t *testing.T) {
	srv := newServer(newTestSuite(t), engine.NewBreaker(0, 0), 0)
	h := srv.handler()
	if rec := serveOne(h, cellsTarget, ""); rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d", cellsTarget, rec.Code)
	}
	for i := range 1000 {
		target := fmt.Sprintf("/v1/cells?app=no-such-app-%d&scheme=acic", i)
		if rec := serveOne(h, target, ""); rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", target, rec.Code)
		}
	}
	srv.settledMu.RLock()
	n := len(srv.settled)
	srv.settledMu.RUnlock()
	if n != 1 || n > maxCells() {
		t.Errorf("%d settled entries after one registry cell and 1,000 unknown apps, want 1 (bound %d)", n, maxCells())
	}
}

// TestServeCellsSettledBodyStable: once a cell is settled, its answer is
// byte for byte the one computed on the first request, alongside a cell
// that fails and so is answered afresh every time.
func TestServeCellsSettledBodyStable(t *testing.T) {
	h := newServer(newTestSuite(t), engine.NewBreaker(0, 0), 0).handler()
	target := "/v1/cells?app=" + testApp + "&scheme=acic,lru,no-such-scheme"
	first := serveOne(h, target, "")
	if first.Code != http.StatusOK {
		t.Fatalf("first GET = %d", first.Code)
	}
	again := serveOne(h, target, "")
	if again.Body.String() != first.Body.String() || again.Header().Get("ETag") != first.Header().Get("ETag") {
		t.Errorf("settled answer differs from the first:\n%s\n%s", again.Body, first.Body)
	}
}

// TestWriteCellsMatchesWriteJSON: the body writeCells assembles from
// encoded outcomes is byte for byte what api.WriteJSON writes for the same
// CellsResponse, for results, errors whose text needs escaping, and an
// empty cell list.
func TestWriteCellsMatchesWriteJSON(t *testing.T) {
	cell := api.Cell{App: testApp, Scheme: "acic", Prefetcher: "fdp"}
	outcomes := []api.CellOutcome{
		{Cell: cell, Key: "v4|k", Result: json.RawMessage(`{"Cycles": 12, "MPKI":1.5}`)},
		{Cell: cell, Key: "v4|<k&>", Error: &api.Error{Code: api.CodeCellError, Message: `no "x" <&>`, Cell: cell.String()}},
	}
	for _, cells := range [][]api.CellOutcome{outcomes, outcomes[:1], {}} {
		etag := etagFor(fmt.Sprint(len(cells)))
		want := httptest.NewRecorder()
		api.WriteJSON(want, http.StatusOK, api.CellsResponse{ETag: etag, Cells: cells})
		encoded := make([][]byte, len(cells))
		for i, o := range cells {
			encoded[i], _ = json.Marshal(o)
		}
		got := httptest.NewRecorder()
		writeCells(got, etag, encoded)
		if got.Body.String() != want.Body.String() || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%d cells: writeCells wrote\n%q, api.WriteJSON\n%q", len(cells), got.Body, want.Body)
		}
	}
}
