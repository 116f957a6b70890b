package engine

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"acic/internal/api"
	"acic/internal/faults"
)

// newStoreServer spins up a StoreServer over a scratch directory and
// returns its base URL plus the backing root.
func newStoreServer(t *testing.T) (url, root string) {
	t.Helper()
	root = t.TempDir()
	h, err := NewStoreHandler(root)
	if err != nil {
		t.Fatalf("NewStoreHandler(%s): %v", root, err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL, root
}

// A DiskCache pointed at an http:// URL must behave exactly like a local
// one: Store then Load round-trips, Has sees published entries, and
// misses stay misses.
func TestHTTPStoreRoundTrip(t *testing.T) {
	url, _ := newStoreServer(t)
	c, err := NewDiskCache[string, int](url, func(k string) string { return k })
	if err != nil {
		t.Fatalf("NewDiskCache(%s): %v", url, err)
	}
	if _, ok := c.Load("k"); ok {
		t.Fatal("Load hit on an empty store")
	}
	if c.Has("k") {
		t.Fatal("Has true on an empty store")
	}
	c.Store("k", 42)
	if got, ok := c.Load("k"); !ok || got != 42 {
		t.Fatalf("Load after Store = (%d, %v), want (42, true)", got, ok)
	}
	if !c.Has("k") {
		t.Fatal("Has false after Store")
	}
}

// Two caches sharing one store URL must see each other's entries — that
// is the whole point of the remote backend.
func TestHTTPStoreIsShared(t *testing.T) {
	url, _ := newStoreServer(t)
	key := func(k string) string { return k }
	a, err := NewDiskCache[string, int](url, key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDiskCache[string, int](url, key)
	if err != nil {
		t.Fatal(err)
	}
	a.Store("k", 7)
	if got, ok := b.Load("k"); !ok || got != 7 {
		t.Fatalf("second client Load = (%d, %v), want (7, true)", got, ok)
	}
}

// An unreachable store must fail loudly at construction, mirroring the
// local writability probe: Store is best-effort, so without the probe a
// worker with a bad -store-url would silently persist nothing.
func TestHTTPStoreUnreachableFailsConstruction(t *testing.T) {
	_, err := NewDiskCache[string, int]("http://127.0.0.1:1/nope", func(k string) string { return k })
	if err == nil {
		t.Fatal("NewDiskCache succeeded against an unreachable store")
	}
}

// Streamed writes must publish through the server too: the entry is
// staged in a local temp file and shipped in one PUT on Commit, and an
// Abort leaves nothing behind.
func TestHTTPStoreStreaming(t *testing.T) {
	url, root := newStoreServer(t)
	c, err := NewCodecDiskCache(url, ".bin", func(k string) string { return k },
		func(v []byte) ([]byte, error) { return v, nil },
		func(b []byte) ([]byte, error) { return append([]byte(nil), b...), nil })
	if err != nil {
		t.Fatal(err)
	}
	e, ok := c.BeginStream("k")
	if !ok {
		t.Fatal("BeginStream failed")
	}
	if _, err := e.F.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.F.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	e.Commit()
	got, ok := c.Load("k")
	if !ok || string(got) != "hello world" {
		t.Fatalf("Load after streamed Commit = (%q, %v), want (\"hello world\", true)", got, ok)
	}

	a, ok := c.BeginStream("aborted")
	if !ok {
		t.Fatal("BeginStream failed")
	}
	a.F.Write([]byte("partial"))
	a.Abort()
	if c.Has("aborted") {
		t.Fatal("aborted stream was published")
	}
	// The server's root must hold only complete entries — no stray temps.
	for _, name := range storeRootFiles(t, root) {
		if filepath.Ext(name) != ".bin" {
			t.Fatalf("stray file %q in store root", name)
		}
	}
}

// The server is content-addressed, so an entry's name is its content key:
// GET must return it as the ETag and honor If-None-Match with 304.
func TestHTTPStoreETag(t *testing.T) {
	url, _ := newStoreServer(t)
	c, err := NewDiskCache[string, int](url, func(k string) string { return k })
	if err != nil {
		t.Fatal(err)
	}
	c.Store("k", 1)
	name := c.name("k")
	resp, err := http.Get(url + "/blob/" + name)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag != `"`+name+`"` {
		t.Fatalf("ETag = %q, want %q", etag, `"`+name+`"`)
	}
	req, _ := http.NewRequest(http.MethodGet, url+"/blob/"+name, nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET = %s, want 304", resp2.Status)
	}
}

// decodeEnvelope asserts the response is a JSON api.Envelope and
// returns its error.
func decodeEnvelope(t *testing.T, resp *http.Response) *api.Error {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error response content type = %q, want application/json", ct)
	}
	var env api.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error response body is not an envelope: %v", err)
	}
	if env.Err == nil {
		t.Fatal("envelope has no error")
	}
	return env.Err
}

// Entry names come from the request path, so the handler must reject
// anything that is not a plain content-hash name — always 400 with the
// bad_request code, never conflated with a missing entry's 404.
func TestHTTPStoreRejectsBadNames(t *testing.T) {
	url, _ := newStoreServer(t)
	for _, name := range []string{"..%2F..%2Fetc%2Fpasswd", "a%2Fb.json", "UPPER.json", "has space.json", "%2E"} {
		resp, err := http.Get(url + "/blob/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /blob/%s = %s, want 400", name, resp.Status)
		}
		if e := decodeEnvelope(t, resp); e.Code != api.CodeBadRequest {
			t.Fatalf("GET /blob/%s error code = %q, want %q", name, e.Code, api.CodeBadRequest)
		}
	}
}

// The store handler speaks the shared api envelope on every error path,
// with codes that distinguish the failure classes: missing entries are
// not_found, wrong verbs are method_not_allowed, unknown paths are
// not_found — all machine-readable, none plain text.
func TestHTTPStoreErrorEnvelope(t *testing.T) {
	url, _ := newStoreServer(t)

	resp, err := http.Get(url + "/blob/aaaa1111.json")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing blob = %s, want 404", resp.Status)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeNotFound {
		t.Fatalf("missing blob code = %q, want %q", e.Code, api.CodeNotFound)
	}

	req, _ := http.NewRequest(http.MethodDelete, url+"/blob/aaaa1111.json", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE blob = %s, want 405", resp.Status)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeMethodNotAllowed {
		t.Fatalf("DELETE blob code = %q, want %q", e.Code, api.CodeMethodNotAllowed)
	}

	resp, err = http.Get(url + "/quarantine/aaaa1111.json")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET quarantine = %s, want 405", resp.Status)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeMethodNotAllowed {
		t.Fatalf("GET quarantine code = %q, want %q", e.Code, api.CodeMethodNotAllowed)
	}

	resp, err = http.Get(url + "/no-such-endpoint")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path = %s, want 404", resp.Status)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeNotFound {
		t.Fatalf("unknown path code = %q, want %q", e.Code, api.CodeNotFound)
	}

	// healthz is JSON too, versioned so clients can detect the contract.
	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if h.Status != "ok" || h.Version != api.Version {
		t.Fatalf("healthz = %+v", h)
	}
}

// A corrupt remote entry must be quarantined server-side — moved out of
// the store root with a .reason sidecar — and read as a miss, exactly
// like the local quarantine path.
func TestHTTPStoreQuarantine(t *testing.T) {
	url, root := newStoreServer(t)
	c, err := NewDiskCache[string, int](url, func(k string) string { return k })
	if err != nil {
		t.Fatal(err)
	}
	c.Store("k", 42)
	name := c.name("k")
	// Corrupt the published entry behind the server's back.
	if err := os.WriteFile(filepath.Join(root, name), []byte("not a frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load("k"); ok {
		t.Fatal("Load hit on a corrupt entry")
	}
	if got := c.Quarantined(); got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
	qpath := filepath.Join(root, QuarantineDirName, name)
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("corrupt entry was not quarantined server-side: %v", err)
	}
	reason, err := os.ReadFile(qpath + ".reason")
	if err != nil || len(reason) == 0 {
		t.Fatalf("quarantine reason sidecar missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, name)); !os.IsNotExist(err) {
		t.Fatal("corrupt entry still in store root after quarantine")
	}
	// The entry regenerates cleanly afterwards.
	c.Store("k", 42)
	if got, ok := c.Load("k"); !ok || got != 42 {
		t.Fatalf("Load after regenerate = (%d, %v), want (42, true)", got, ok)
	}
}

// Injected net-err faults must read exactly like transport failures:
// loads miss, stores skip, and nothing reaches the server.
func TestHTTPStoreNetErrFaults(t *testing.T) {
	url, _ := newStoreServer(t)
	c, err := NewDiskCache[string, int](url, func(k string) string { return k })
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.Install("net-err:p=1;seed=1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { faults.Install("") })
	c.Store("k", 42) // skipped: the PUT is never issued
	if got := faults.Snapshot().NetErrs; got != 1 {
		t.Fatalf("NetErrs after skipped Store = %d, want 1", got)
	}
	faults.Install("")
	if c.Has("k") {
		t.Fatal("Store under net-err reached the server")
	}
	c.Store("k", 42)
	faults.Install("net-err:p=1;seed=1")
	if _, ok := c.Load("k"); ok {
		t.Fatal("Load hit while net-err fires on every request")
	}
	if got := faults.Snapshot().NetErrs; got != 1 {
		t.Fatalf("NetErrs after missed Load = %d, want 1", got)
	}
}

// Store-level fencing: writers racing one content-addressed key must
// converge to a single complete published entry, byte-identical to what
// any one writer produced — readers never observe a partial or mixed
// entry. Exercised over both backends; the publish discipline under test
// is the same tmp/ + fsync + rename either way (client-side locally,
// server-side over HTTP).
func TestStoreFencingConvergesRacingWriters(t *testing.T) {
	newLocal := func(t *testing.T) (*DiskCache[string, int], string) {
		dir := t.TempDir()
		c, err := NewDiskCache[string, int](dir, func(k string) string { return k })
		if err != nil {
			t.Fatal(err)
		}
		return c, dir
	}
	newRemote := func(t *testing.T) (*DiskCache[string, int], string) {
		url, root := newStoreServer(t)
		c, err := NewDiskCache[string, int](url, func(k string) string { return k })
		if err != nil {
			t.Fatal(err)
		}
		return c, root
	}
	for name, mk := range map[string]func(*testing.T) (*DiskCache[string, int], string){
		"filesystem": newLocal, "http": newRemote,
	} {
		t.Run(name, func(t *testing.T) {
			c, root := mk(t)
			const writers = 16
			var wg sync.WaitGroup
			for i := 0; i < writers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Same key, same value: content-addressed writers
					// are byte-identical by construction, and the race
					// is over who publishes.
					c.Store("contested", 12345)
				}()
			}
			// Readers race the writers; every hit must be the one true
			// value (a torn entry would fail the CRC frame and read as
			// a miss or quarantine — also a failure below).
			for i := 0; i < 50; i++ {
				if v, ok := c.Load("contested"); ok && v != 12345 {
					t.Fatalf("racing reader saw %d, want 12345", v)
				}
			}
			wg.Wait()
			if got := c.Quarantined(); got != 0 {
				t.Fatalf("fencing race quarantined %d entries, want 0", got)
			}
			if v, ok := c.Load("contested"); !ok || v != 12345 {
				t.Fatalf("post-race Load = (%d, %v), want (12345, true)", v, ok)
			}
			// Exactly one complete entry in the store root, nothing else.
			var published []string
			for _, f := range storeRootFiles(t, root) {
				published = append(published, f)
			}
			if len(published) != 1 {
				t.Fatalf("store root holds %v, want exactly one entry", published)
			}
			want := c.name("contested")
			if published[0] != want {
				t.Fatalf("published entry %q, want %q", published[0], want)
			}
		})
	}
}

// IsStoreURL is the routing predicate every store-dir flag goes through.
func TestIsStoreURL(t *testing.T) {
	for dir, want := range map[string]bool{
		"http://localhost:9321":  true,
		"https://store.internal": true,
		"/var/cache/acic":        false,
		"relative/dir":           false,
		"httpdir":                false,
	} {
		if got := IsStoreURL(dir); got != want {
			t.Errorf("IsStoreURL(%q) = %v, want %v", dir, got, want)
		}
	}
}
