package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"acic/internal/faults"
)

// Cache is a persistent key/value store consulted by a Group before its
// compute function runs. Implementations must be safe for concurrent use.
type Cache[K comparable, V any] interface {
	Load(k K) (V, bool)
	Store(k K, v V)
}

const (
	// tmpDirName is the store subdirectory holding in-progress writes.
	// Keeping temps out of the store root means a crash mid-write can
	// never leave a partial file next to live artifacts — anything in
	// tmp/ is by definition incomplete and is swept when stale.
	tmpDirName = "tmp"
	// QuarantineDirName is the store subdirectory where undecodable
	// entries are moved (with a sibling ".reason" file) instead of being
	// silently re-read forever. Exported so tools and CI can assert no
	// quarantined or partial file ever sits outside it.
	QuarantineDirName = "quarantine"
	// staleTempAge is how old a tmp/ file must be before construction-time
	// sweeping deletes it. Generously longer than any write in flight, so
	// concurrent processes sharing a store never reap each other's temps.
	staleTempAge = time.Hour
)

// blobStore is the byte-level backend behind a DiskCache: named blobs
// published atomically (readers never observe a partial entry), with a
// quarantine path that takes a corrupt entry out of service. Two
// implementations exist — the local filesystem store (fsStore, the
// original DiskCache semantics) and the HTTP client store (httpStore,
// speaking to a StoreServer that applies the same fsync+rename publish
// server-side) — so every store consumer transparently works against a
// shared remote store by pointing its directory at an http:// URL.
type blobStore interface {
	get(name string) ([]byte, bool)
	put(name string, data []byte)
	has(name string) bool
	// begin starts a streaming write: the caller fills the returned
	// entry's temp file and publishes with Commit.
	begin(name string) (*StreamEntry, bool)
	// quarantine takes a corrupt published entry out of service,
	// preserving it (with the reason) when the backend can.
	quarantine(name, key string, cause error)
}

// DiskCache persists encoded values in a blob store, one entry per key.
// The caller supplies a canonical key function; its output is hashed
// (SHA-256) into the entry name, so keys may be arbitrarily long and should
// include everything the value depends on (for simulation results: the
// workload profile hash, trace length, scheme, prefetcher, options, and a
// schema version). Values are JSON by default (NewDiskCache, framed with
// a whole-payload CRC so bit rot cannot silently alter a cached result);
// a custom byte codec (NewCodecDiskCache) lets the same store hold binary
// artifacts such as trace-codec containers.
//
// The backing store is the local filesystem by default; a directory
// argument of the form http:// or https:// selects the remote HTTP
// backend instead (see StoreServer), so one shared store can serve a
// fleet of processes. Entry names are content-addressed either way —
// the hash of the canonical key — which is what makes concurrent writers
// safe: two processes racing the same key publish byte-identical content,
// and the atomic rename (local or server-side) fences them to one entry.
//
// Load and Store are best-effort: unreadable or truncated entries are
// misses (the value is regenerated and rewritten) and write failures are
// ignored — the cache can only make reruns faster, never wrong results.
// Writes are crash-safe: encoded bytes go to a fsynced temp file and are
// renamed into place atomically, so readers never observe a partial entry
// and a crash leaves nothing in the store root. An entry that reads but
// fails to decode is quarantined — moved to quarantine/ with a reason
// file — so corruption is preserved for diagnosis instead of being
// re-read (and re-failed) on every warm run.
type DiskCache[K comparable, V any] struct {
	store blobStore
	ext   string
	key   func(K) string
	enc   func(V) ([]byte, error)
	dec   func([]byte) (V, error)

	quarantined atomic.Int64
}

// jsonMagic frames JSON cache entries: magic, 4-byte little-endian IEEE
// CRC-32 of the payload, payload. JSON alone has no integrity check — a
// flipped bit inside a number still parses, which would serve a silently
// wrong cached result — so the frame makes JSON entries as corruption-
// evident as the checksummed trace containers.
const jsonMagic = "ACJ1"

// IsStoreURL reports whether a store directory string selects the remote
// HTTP backend rather than a local filesystem path.
func IsStoreURL(dir string) bool {
	return strings.HasPrefix(dir, "http://") || strings.HasPrefix(dir, "https://")
}

// NewDiskCache creates (if needed) dir and returns a CRC-framed,
// JSON-encoded cache over it. Entries written by older unframed versions
// fail the frame check and are quarantined and regenerated on first read.
func NewDiskCache[K comparable, V any](dir string, key func(K) string) (*DiskCache[K, V], error) {
	return NewCodecDiskCache(dir, ".json", key,
		func(v V) ([]byte, error) {
			payload, err := json.Marshal(v)
			if err != nil {
				return nil, err
			}
			return encodeJSONFrame(payload), nil
		},
		func(data []byte) (V, error) {
			var v V
			payload, err := decodeJSONFrame(data)
			if err != nil {
				return v, err
			}
			err = json.Unmarshal(payload, &v)
			return v, err
		})
}

// encodeJSONFrame wraps a JSON payload in the jsonMagic frame.
func encodeJSONFrame(payload []byte) []byte {
	buf := make([]byte, len(jsonMagic)+4+len(payload))
	copy(buf, jsonMagic)
	binary.LittleEndian.PutUint32(buf[len(jsonMagic):], crc32.ChecksumIEEE(payload))
	copy(buf[len(jsonMagic)+4:], payload)
	return buf
}

// decodeJSONFrame checks a jsonMagic frame — magic and payload CRC — and
// returns the payload it carries.
func decodeJSONFrame(data []byte) ([]byte, error) {
	if len(data) < len(jsonMagic)+4 || string(data[:len(jsonMagic)]) != jsonMagic {
		return nil, fmt.Errorf("engine: cache entry is not a %s frame", jsonMagic)
	}
	payload := data[len(jsonMagic)+4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[len(jsonMagic):]) {
		return nil, errors.New("engine: cache entry CRC mismatch")
	}
	return payload, nil
}

// NewCodecDiskCache creates a cache over dir — a local directory (created
// with all missing parents) or, when dir is an http(s):// URL, a remote
// StoreServer — whose values are encoded by enc and decoded by dec. An
// entry decodes from its own bytes alone; any dec error quarantines the
// entry and reads as a miss. A nil enc makes a cache written only through
// BeginStream; its Store is a no-op.
//
// The backend is probed up front: Store is deliberately best-effort (a
// failed write only costs a future recompute), so without the probe an
// unwritable store — a read-only mount, a permission mismatch, an
// unreachable store server — would silently persist nothing while the
// caller believes it warmed a cache. Local construction also sweeps stale
// files out of tmp/, reclaiming temps left by crashed writers.
func NewCodecDiskCache[K comparable, V any](dir, ext string, key func(K) string,
	enc func(V) ([]byte, error), dec func([]byte) (V, error)) (*DiskCache[K, V], error) {
	var store blobStore
	if IsStoreURL(dir) {
		hs, err := newHTTPStore(dir)
		if err != nil {
			return nil, err
		}
		store = hs
	} else {
		fs, err := newFSStore(dir)
		if err != nil {
			return nil, err
		}
		store = fs
	}
	return &DiskCache[K, V]{store: store, ext: ext, key: key, enc: enc, dec: dec}, nil
}

// name returns the content-addressed entry name for k: the hash of the
// canonical key plus the codec extension.
func (d *DiskCache[K, V]) name(k K) string {
	sum := sha256.Sum256([]byte(d.key(k)))
	return hex.EncodeToString(sum[:16]) + d.ext
}

// path returns the filesystem path of k's entry. Only meaningful for the
// local backend (tests use it to corrupt entries in place); panics on a
// remote store, where entries have no local path.
func (d *DiskCache[K, V]) path(k K) string {
	return d.store.(*fsStore).path(d.name(k))
}

// Quarantined returns how many undecodable entries this cache has moved
// to quarantine/ (or deleted, when the move itself failed).
func (d *DiskCache[K, V]) Quarantined() int64 { return d.quarantined.Load() }

// Load implements Cache. Unreadable entries are misses; entries that read
// but fail to decode are quarantined and then miss, so the caller
// regenerates (and re-stores) transparently.
func (d *DiskCache[K, V]) Load(k K) (V, bool) {
	var zero V
	name := d.name(k)
	if faults.FailIO("load", name) {
		return zero, false
	}
	data, ok := d.store.get(name)
	if !ok {
		return zero, false
	}
	v, err := d.dec(data)
	if err != nil {
		d.store.quarantine(name, d.key(k), err)
		d.quarantined.Add(1)
		return zero, false
	}
	return v, true
}

// Has reports whether an entry for k exists in the store, without reading
// or decoding it. A true result is no guarantee the entry will decode —
// Load still treats corruption as a miss — it only routes callers that
// choose between a warm load path and a regenerating path.
func (d *DiskCache[K, V]) Has(k K) bool {
	return d.store.has(d.name(k))
}

// StreamEntry is a streaming Store in progress: the caller writes the
// encoded value to F incrementally (F is a fresh local temp file, so
// seeking is allowed), then either Commit publishes it atomically or
// Abort discards it. Best-effort like Store: both outcomes only decide
// whether a future Load hits.
type StreamEntry struct {
	F    *os.File
	name string // store entry name, the key of the commit fault site
	done bool
	// publish finalizes the flushed temp file into the backend: rename
	// for the filesystem store, PUT for the HTTP store. It owns closing
	// and removing the temp file.
	publish func(f *os.File)
}

// BeginStream starts a streaming Store for k. ok is false when the store
// cannot create a temp file — callers skip persistence and continue.
func (d *DiskCache[K, V]) BeginStream(k K) (*StreamEntry, bool) {
	name := d.name(k)
	if faults.FailIO("begin-stream", name) {
		return nil, false
	}
	e, ok := d.store.begin(name)
	if ok {
		e.name = name
	}
	return e, ok
}

// Commit finalizes the entry: fsync, then atomic publish (rename into the
// store root, or an HTTP PUT the server publishes the same way), so
// concurrent readers never observe a partial artifact and a post-publish
// crash cannot leave the entry's bytes unflushed.
func (e *StreamEntry) Commit() {
	if e == nil || e.done {
		return
	}
	e.done = true
	if faults.FailIO("commit", e.name) {
		e.F.Close()
		os.Remove(e.F.Name())
		return
	}
	corruptEntry(e.F, e.name)
	if err := e.F.Sync(); err != nil {
		e.F.Close()
		os.Remove(e.F.Name())
		return
	}
	e.publish(e.F)
}

// corruptEntry applies the corrupt-artifact fault to a streamed entry
// before it is published, as Store applies it to encoded bytes. Like the
// rest of the injector it is best-effort: a flip that cannot be read or
// written back is simply not injected.
func corruptEntry(f *os.File, name string) {
	info, err := f.Stat()
	if err != nil {
		return
	}
	off, mask, hit := faults.CorruptBit(name, info.Size())
	if !hit {
		return
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err == nil {
		b[0] ^= mask
		f.WriteAt(b[:], off)
	}
}

// Abort discards the in-progress entry. Safe on nil and after Commit, so
// callers can unconditionally defer it as panic insurance.
func (e *StreamEntry) Abort() {
	if e == nil || e.done {
		return
	}
	e.done = true
	e.F.Close()
	os.Remove(e.F.Name())
}

// Store implements Cache. The value is staged to a fsynced temp file and
// published atomically, so concurrent readers never observe a partial
// entry and a crash leaves nothing in the store root.
func (d *DiskCache[K, V]) Store(k K, v V) {
	name := d.name(k)
	if d.enc == nil || faults.FailIO("store", name) {
		return
	}
	data, err := d.enc(v)
	if err != nil {
		return
	}
	d.store.put(name, faults.Corrupt(name, data))
}

// fsStore is the local-filesystem blob backend: the original DiskCache
// semantics — entries live flat in dir, writes stage under tmp/ and
// publish by fsync+rename, corrupt entries move to quarantine/.
type fsStore struct {
	dir string
}

// newFSStore creates (if needed) dir and its tmp/ staging area, probes
// writability, and sweeps stale temps left by crashed writers.
func newFSStore(dir string) (*fsStore, error) {
	tmpDir := filepath.Join(dir, tmpDirName)
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: create cache dir %s: %w", dir, err)
	}
	probe, err := os.CreateTemp(tmpDir, "probe-*")
	if err != nil {
		return nil, fmt.Errorf("engine: cache dir %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	sweepStaleTemps(tmpDir)
	return &fsStore{dir: dir}, nil
}

// sweepStaleTemps removes tmp/ files older than staleTempAge: leftovers
// from writers that crashed between CreateTemp and Rename.
func sweepStaleTemps(tmpDir string) {
	entries, err := os.ReadDir(tmpDir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		info, err := ent.Info()
		if err == nil && time.Since(info.ModTime()) > staleTempAge {
			os.Remove(filepath.Join(tmpDir, ent.Name()))
		}
	}
}

func (s *fsStore) path(name string) string { return filepath.Join(s.dir, name) }
func (s *fsStore) tmpDir() string          { return filepath.Join(s.dir, tmpDirName) }

func (s *fsStore) get(name string) ([]byte, bool) {
	data, err := os.ReadFile(s.path(name))
	if err != nil {
		return nil, false
	}
	return data, true
}

func (s *fsStore) has(name string) bool {
	_, err := os.Stat(s.path(name))
	return err == nil
}

func (s *fsStore) put(name string, data []byte) {
	tmp, err := os.CreateTemp(s.tmpDir(), "tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), s.path(name)); err != nil {
		os.Remove(tmp.Name())
	}
}

func (s *fsStore) begin(name string) (*StreamEntry, bool) {
	tmp, err := os.CreateTemp(s.tmpDir(), "tmp-*")
	if err != nil {
		return nil, false
	}
	path := s.path(name)
	return &StreamEntry{F: tmp, publish: func(f *os.File) {
		if err := f.Close(); err != nil {
			os.Remove(f.Name())
			return
		}
		if err := os.Rename(f.Name(), path); err != nil {
			os.Remove(f.Name())
		}
	}}, true
}

// quarantine takes a corrupt entry out of service: the file moves to
// quarantine/ with a sibling reason file naming the key and the decode
// error, so the evidence survives for diagnosis while every future read
// regenerates cleanly. If the move fails the entry is deleted instead —
// preserving it matters less than never re-reading it.
func (s *fsStore) quarantine(name, key string, cause error) {
	path := s.path(name)
	qdir := filepath.Join(s.dir, QuarantineDirName)
	dst := filepath.Join(qdir, name)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(path)
		return
	}
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
		return
	}
	os.WriteFile(dst+".reason", []byte(quarantineReason(key, cause)), 0o644)
}

// quarantineReason renders the .reason sidecar contents; shared with the
// HTTP path so a remote quarantine reads identically to a local one.
func quarantineReason(key string, cause error) string {
	return fmt.Sprintf("key: %s\nerror: %v\nquarantined: %s\n",
		key, cause, time.Now().UTC().Format(time.RFC3339))
}
