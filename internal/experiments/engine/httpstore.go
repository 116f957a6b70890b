package engine

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"acic/internal/api"
	"acic/internal/faults"
)

// httpStore is the remote blob backend: a client for a StoreServer. Every
// operation maps onto one round trip — GET/PUT/HEAD /blob/{name}, POST
// /quarantine/{name} — and every operation is best-effort exactly like
// the filesystem store: a failed or injected-to-fail request reads as a
// miss or skips the write, never as a wrong result. The server applies
// the same fsync+rename publish discipline the local store does, so
// concurrent writers racing one content-addressed name still converge to
// a single complete entry.
type httpStore struct {
	base   string
	client *http.Client
}

// storeClientTimeout bounds each store round trip. Entries are at most a
// few tens of megabytes (trace containers), so a minute of headroom means
// a hit only when the server is truly gone — and the caller's contract
// (miss / skip) makes that safe.
const storeClientTimeout = 60 * time.Second

// newHTTPStore validates the base URL and probes the server's /healthz,
// mirroring the local store's construction-time writability probe: a
// misconfigured or unreachable store fails loudly up front instead of
// silently persisting nothing.
func newHTTPStore(base string) (*httpStore, error) {
	s := &httpStore{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Timeout: storeClientTimeout},
	}
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("engine: store %s is unreachable: %w", base, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("engine: store %s health check: %s", base, resp.Status)
	}
	return s, nil
}

func (s *httpStore) blobURL(name string) string { return s.base + "/blob/" + name }

func (s *httpStore) get(name string) ([]byte, bool) {
	if faults.FailNet("get", name) {
		return nil, false
	}
	resp, err := s.client.Get(s.blobURL(name))
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false
	}
	return data, true
}

func (s *httpStore) has(name string) bool {
	if faults.FailNet("head", name) {
		return false
	}
	req, err := http.NewRequest(http.MethodHead, s.blobURL(name), nil)
	if err != nil {
		return false
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (s *httpStore) put(name string, data []byte) {
	if faults.FailNet("put", name) {
		return
	}
	req, err := http.NewRequest(http.MethodPut, s.blobURL(name), strings.NewReader(string(data)))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// begin stages the streamed entry in a local temp file (the local
// filesystem is the only place a stream can be written incrementally and
// seeked), and publish ships the finished file to the server in one PUT.
func (s *httpStore) begin(name string) (*StreamEntry, bool) {
	tmp, err := os.CreateTemp("", "acic-stream-*")
	if err != nil {
		return nil, false
	}
	return &StreamEntry{F: tmp, publish: func(f *os.File) {
		defer os.Remove(f.Name())
		defer f.Close()
		if faults.FailNet("put", name) {
			return
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return
		}
		info, err := f.Stat()
		if err != nil {
			return
		}
		req, err := http.NewRequest(http.MethodPut, s.blobURL(name), f)
		if err != nil {
			return
		}
		req.ContentLength = info.Size()
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := s.client.Do(req)
		if err != nil {
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}}, true
}

func (s *httpStore) quarantine(name, key string, cause error) {
	if faults.FailNet("quarantine", name) {
		return
	}
	req, err := http.NewRequest(http.MethodPost, s.base+"/quarantine/"+name,
		strings.NewReader(quarantineReason(key, cause)))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := s.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// storeServer serves one local blob store directory over HTTP to remote
// DiskCaches. It reuses fsStore for every write, so the crash-safety and
// fencing story is identical to a local store: PUTs stage under tmp/ and
// publish by fsync+rename, which collapses concurrent writers of one
// content-addressed name to a single complete entry.
type storeServer struct {
	fs *fsStore
}

// NewStoreHandler creates (if needed) root and returns an http.Handler
// serving it as a shared blob store:
//
//	GET  /healthz          — liveness probe (construction-time check)
//	GET  /blob/{name}      — entry bytes; ETag is the name itself (the
//	                         store is content-addressed, so the name IS
//	                         the content key) and If-None-Match gets 304
//	HEAD /blob/{name}      — existence check (DiskCache.Has)
//	PUT  /blob/{name}      — atomic publish via tmp/ + fsync + rename
//	POST /quarantine/{name} — move the entry to quarantine/, body is the
//	                         .reason sidecar contents
//
// Names are validated (content-hash charset, single path element) so the
// handler can never be walked out of root.
func NewStoreHandler(root string) (http.Handler, error) {
	fs, err := newFSStore(root)
	if err != nil {
		return nil, err
	}
	return &storeServer{fs: fs}, nil
}

// validName reports whether name is a plausible store entry name: one
// path element of hash hex plus a dotted extension, nothing that could
// escape the store root or name the root itself (".").
func validName(name string) bool {
	if name == "" || name == "." || len(name) > 128 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.', r == '-':
		default:
			return false
		}
	}
	return !strings.Contains(name, "..")
}

func (s *storeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		api.WriteJSON(w, http.StatusOK, api.Health{Status: "ok", Version: api.Version})
	case strings.HasPrefix(r.URL.Path, "/blob/"):
		s.blob(w, r, strings.TrimPrefix(r.URL.Path, "/blob/"))
	case strings.HasPrefix(r.URL.Path, "/quarantine/"):
		if r.Method != http.MethodPost {
			api.WriteError(w, http.StatusMethodNotAllowed, &api.Error{
				Code: api.CodeMethodNotAllowed, Message: "quarantine requires POST"})
			return
		}
		s.quarantine(w, r, strings.TrimPrefix(r.URL.Path, "/quarantine/"))
	default:
		api.WriteError(w, http.StatusNotFound, &api.Error{
			Code: api.CodeNotFound, Message: "no such endpoint: " + r.URL.Path})
	}
}

func (s *storeServer) blob(w http.ResponseWriter, r *http.Request, name string) {
	if !validName(name) {
		api.WriteError(w, http.StatusBadRequest, &api.Error{
			Code: api.CodeBadRequest, Message: "bad entry name"})
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		etag := `"` + name + `"`
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		f, err := os.Open(s.fs.path(name))
		if err != nil {
			api.WriteError(w, http.StatusNotFound, &api.Error{
				Code: api.CodeNotFound, Message: "no such entry: " + name})
			return
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			api.WriteError(w, http.StatusNotFound, &api.Error{
				Code: api.CodeNotFound, Message: "no such entry: " + name})
			return
		}
		w.Header().Set("ETag", etag)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(info.Size()))
		if r.Method == http.MethodGet {
			io.Copy(w, f)
		}
	case http.MethodPut:
		// Stage and publish through fsStore's tmp/ + fsync + rename path
		// rather than writing in place: a torn upload leaves nothing in
		// the store root, and racing writers fence to one entry.
		entry, ok := s.fs.begin(name)
		if !ok {
			api.WriteError(w, http.StatusInsufficientStorage, &api.Error{
				Code: api.CodeStoreWrite, Message: "store write failed", Transient: true})
			return
		}
		if _, err := io.Copy(entry.F, r.Body); err != nil {
			entry.Abort()
			api.WriteError(w, http.StatusBadRequest, &api.Error{
				Code: api.CodeBadRequest, Message: "upload truncated", Transient: true})
			return
		}
		entry.Commit()
		w.Header().Set("ETag", `"`+name+`"`)
		w.WriteHeader(http.StatusCreated)
	default:
		api.WriteError(w, http.StatusMethodNotAllowed, &api.Error{
			Code: api.CodeMethodNotAllowed, Message: r.Method + " not allowed on /blob/"})
	}
}

func (s *storeServer) quarantine(w http.ResponseWriter, r *http.Request, name string) {
	if !validName(name) {
		api.WriteError(w, http.StatusBadRequest, &api.Error{
			Code: api.CodeBadRequest, Message: "bad entry name"})
		return
	}
	reason, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, &api.Error{
			Code: api.CodeBadRequest, Message: "bad reason body"})
		return
	}
	path := s.fs.path(name)
	qdir := filepath.Join(s.fs.dir, QuarantineDirName)
	dst := filepath.Join(qdir, name)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(path)
		api.WriteJSON(w, http.StatusOK, api.Ack{Status: "removed"})
		return
	}
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
		api.WriteJSON(w, http.StatusOK, api.Ack{Status: "removed"})
		return
	}
	os.WriteFile(dst+".reason", reason, 0o644)
	api.WriteJSON(w, http.StatusOK, api.Ack{Status: "quarantined"})
}
