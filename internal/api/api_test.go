package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestEnvelopeShape pins the wire spelling of the error envelope: the
// body is exactly {"error":{...}} with snake_case code strings. Clients
// across the repo (worker protocol, CI curl scripts) match on these
// bytes, so a drift here is a breaking API change.
func TestEnvelopeShape(t *testing.T) {
	data, err := json.Marshal(Envelope{Err: &Error{
		Code: CodeNotFound, Message: "no such figure", Cell: "a|b|c",
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"error":{"code":"not_found","message":"no such figure","cell":"a|b|c"}}`
	if string(data) != want {
		t.Errorf("envelope = %s, want %s", data, want)
	}
}

// TestWriteError pins status, content type, and body round-trip through
// the helper every handler uses.
func TestWriteError(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusServiceUnavailable, &Error{
		Code: CodeCircuitOpen, Message: "cell tripped", Transient: true,
	})
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Err == nil || env.Err.Code != CodeCircuitOpen || !env.Err.Transient {
		t.Errorf("round-trip envelope = %+v", env.Err)
	}
}

// TestReadErrorEnvelope: a proper envelope comes back verbatim.
func TestReadErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusBadRequest, &Error{Code: CodeBadRequest, Message: "missing app"})
	e := ReadError(rec.Result())
	if e.Code != CodeBadRequest || e.Message != "missing app" {
		t.Errorf("ReadError = %+v", e)
	}
}

// TestReadErrorFallback: non-envelope bodies (pre-envelope servers,
// proxy error pages) degrade to a status-classified Error, with 5xx
// marked transient.
func TestReadErrorFallback(t *testing.T) {
	cases := []struct {
		status        int
		body          string
		wantCode      string
		wantTransient bool
	}{
		{http.StatusNotFound, "404 page not found\n", CodeNotFound, false},
		{http.StatusBadRequest, "bad entry name\n", CodeBadRequest, false},
		{http.StatusMethodNotAllowed, "nope", CodeMethodNotAllowed, false},
		{http.StatusBadGateway, "<html>proxy sad</html>", CodeInternal, true},
		{http.StatusTeapot, "{}", CodeInternal, false},
	}
	for _, tc := range cases {
		resp := &http.Response{
			StatusCode: tc.status,
			Status:     http.StatusText(tc.status),
			Body:       readCloser(tc.body),
		}
		e := ReadError(resp)
		if e.Code != tc.wantCode || e.Transient != tc.wantTransient {
			t.Errorf("status %d body %q: got (%s, transient=%v), want (%s, %v)",
				tc.status, tc.body, e.Code, e.Transient, tc.wantCode, tc.wantTransient)
		}
	}
}

func readCloser(s string) *readCloserT { return &readCloserT{Reader: strings.NewReader(s)} }

type readCloserT struct{ *strings.Reader }

func (r *readCloserT) Close() error { return nil }

// TestErrorImplementsError: protocol layers hand *Error up error call
// chains; make sure the formatting carries the cell attribution.
func TestErrorImplementsError(t *testing.T) {
	var err error = &Error{Code: CodeCellError, Message: "boom", Cell: "app|s|pf"}
	if !strings.Contains(err.Error(), "cell_error") || !strings.Contains(err.Error(), "app|s|pf") {
		t.Errorf("Error() = %q", err.Error())
	}
}

// TestCellString pins the canonical cell spelling shared with
// experiments.Cell.String — the join the breaker and ETag keys use.
func TestCellString(t *testing.T) {
	c := Cell{App: "web-search", Scheme: "acic", Prefetcher: "fdp"}
	if got := c.String(); got != "web-search|acic|fdp" {
		t.Errorf("String() = %q", got)
	}
}

// FuzzReadError feeds ReadError arbitrary bodies under arbitrary status
// codes: callers rely on it returning a non-nil *Error with a code for
// anything a server or proxy might send.
func FuzzReadError(f *testing.F) {
	f.Add(500, []byte(`{"error":{"code":"not_found","message":"x"}}`))
	f.Add(404, []byte(`<html>not found</html>`))
	f.Add(400, []byte(`{"error":{"code":""}}`))
	f.Add(503, []byte(`{"error":null}`))
	f.Add(200, []byte{})
	f.Fuzz(func(t *testing.T, status int, body []byte) {
		resp := &http.Response{
			StatusCode: status,
			Status:     http.StatusText(status),
			Body:       io.NopCloser(bytes.NewReader(body)),
		}
		e := ReadError(resp)
		if e == nil || e.Code == "" {
			t.Fatalf("ReadError(%d, %q) = %+v, want an error with a code", status, body, e)
		}
	})
}
