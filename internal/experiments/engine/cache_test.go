package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"acic/internal/faults"
)

// The disk cache must create its directory — including missing parents —
// rather than relying on it pre-existing (`acic-trace warm` hands it a
// fresh path on first use).
func TestDiskCacheCreatesNestedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "artifacts")
	c, err := NewDiskCache[string, int](dir, func(k string) string { return k })
	if err != nil {
		t.Fatalf("NewDiskCache(%s): %v", dir, err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("cache dir was not created: %v", err)
	}
	c.Store("k", 42)
	got, ok := c.Load("k")
	if !ok || got != 42 {
		t.Fatalf("Load after Store = (%d, %v), want (42, true)", got, ok)
	}
}

// An unusable path must fail loudly at construction: Store is
// best-effort, so without the up-front check a warm run would silently
// persist nothing. A path whose parent is a regular file is unusable for
// any user (permission-based checks are bypassed when tests run as root).
func TestDiskCacheUnwritablePathFails(t *testing.T) {
	parent := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(parent, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(parent, "artifacts")
	_, err := NewDiskCache[string, int](dir, func(k string) string { return k })
	if err == nil {
		t.Fatalf("NewDiskCache(%s) succeeded on a path under a regular file", dir)
	}
	if !strings.Contains(err.Error(), dir) {
		t.Fatalf("error %q does not name the offending path %s", err, dir)
	}
}

// storeRootFiles lists regular files sitting directly in the store root
// (ignoring the tmp/ and quarantine/ subdirectories).
func storeRootFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, ent := range entries {
		if !ent.IsDir() {
			files = append(files, ent.Name())
		}
	}
	return files
}

// A store root must only ever contain complete entries: temps live in
// tmp/, quarantined entries in quarantine/.
func TestDiskCacheStoreRootStaysClean(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[string, int](dir, func(k string) string { return k })
	if err != nil {
		t.Fatal(err)
	}
	c.Store("k", 1)
	e, ok := c.BeginStream("streaming")
	if !ok {
		t.Fatal("BeginStream failed")
	}
	e.F.WriteString("partial")
	// With the entry still in flight, the root holds exactly the one
	// committed entry; the partial lives under tmp/.
	if files := storeRootFiles(t, dir); len(files) != 1 {
		t.Fatalf("store root = %v, want exactly the committed entry", files)
	}
	if !strings.HasPrefix(filepath.Base(e.F.Name()), "tmp-") ||
		filepath.Dir(e.F.Name()) != filepath.Join(dir, tmpDirName) {
		t.Fatalf("stream temp %s is not under %s/", e.F.Name(), tmpDirName)
	}
	e.Abort()
	if files, _ := os.ReadDir(filepath.Join(dir, tmpDirName)); len(files) != 0 {
		t.Fatalf("Abort left %d files in tmp/", len(files))
	}
}

// Construction sweeps crash leftovers out of tmp/ once they are stale,
// and leaves fresh temps (a concurrent writer's) alone.
func TestDiskCacheSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	tmpDir := filepath.Join(dir, tmpDirName)
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(tmpDir, "tmp-stale")
	fresh := filepath.Join(tmpDir, "tmp-fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskCache[string, int](dir, func(k string) string { return k }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp survived construction sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp was reaped by construction sweep")
	}
}

// A corrupt entry is quarantined on first read — moved to quarantine/
// with a reason file naming the key and cause — and subsequent loads are
// clean misses, so the caller regenerates exactly once.
func TestDiskCacheQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[string, int](dir, func(k string) string { return k })
	if err != nil {
		t.Fatal(err)
	}
	c.Store("k", 42)
	path := c.path("k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40 // flip a bit inside the JSON payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load("k"); ok {
		t.Fatal("Load served a corrupt entry")
	}
	if got := c.Quarantined(); got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry still in store root after quarantine")
	}
	qpath := filepath.Join(dir, QuarantineDirName, filepath.Base(path))
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	reason, err := os.ReadFile(qpath + ".reason")
	if err != nil {
		t.Fatalf("reason file missing: %v", err)
	}
	if !strings.Contains(string(reason), "key: k") || !strings.Contains(string(reason), "CRC mismatch") {
		t.Fatalf("reason file does not attribute the failure: %q", reason)
	}
	// Regeneration rewrites the entry; the next load is a clean hit.
	c.Store("k", 42)
	if v, ok := c.Load("k"); !ok || v != 42 {
		t.Fatalf("Load after regeneration = (%d, %v)", v, ok)
	}
	if got := c.Quarantined(); got != 1 {
		t.Fatalf("Quarantined after regeneration = %d, want still 1", got)
	}
}

// JSON entries are CRC-framed: a bit flip anywhere in the payload — even
// one that would still parse as valid JSON, like a flipped digit — must
// read as corruption, not as a silently wrong value.
func TestDiskCacheJSONFrameCatchesParseableCorruption(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[string, int](dir, func(k string) string { return k })
	if err != nil {
		t.Fatal(err)
	}
	c.Store("k", 1111)
	path := c.path("k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the low bit of the last payload byte: "1111" -> "1110",
	// still perfectly valid JSON.
	data[len(data)-1] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Load("k"); ok {
		t.Fatalf("Load served silently corrupted value %d", v)
	}
}

// Entries from the pre-frame format (raw JSON) are quarantined and
// regenerated rather than half-trusted.
func TestDiskCacheLegacyUnframedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[string, int](dir, func(k string) string { return k })
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path("k"), []byte("42"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load("k"); ok {
		t.Fatal("Load served an unframed legacy entry")
	}
	if c.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", c.Quarantined())
	}
}

// Injected IO faults make loads miss and stores skip — never errors, and
// never quarantine (the entry on disk is fine).
func TestDiskCacheInjectedIOFaults(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[string, int](dir, func(k string) string { return k })
	if err != nil {
		t.Fatal(err)
	}
	c.Store("k", 42)
	if err := faults.Install("io-err:p=1"); err != nil {
		t.Fatal(err)
	}
	defer faults.Install("")
	if _, ok := c.Load("k"); ok {
		t.Fatal("Load hit under injected IO failure")
	}
	c.Store("k2", 7)
	if _, ok := c.BeginStream("k3"); ok {
		t.Fatal("BeginStream succeeded under injected IO failure")
	}
	faults.Install("")
	if _, ok := c.Load("k2"); ok {
		t.Fatal("Store persisted under injected IO failure")
	}
	if v, ok := c.Load("k"); !ok || v != 42 {
		t.Fatalf("entry damaged by injected faults: (%d, %v)", v, ok)
	}
	if c.Quarantined() != 0 {
		t.Fatalf("Quarantined = %d, want 0 (IO faults are not corruption)", c.Quarantined())
	}
}

// Injected corruption lands on disk at Store time; the next Load catches
// it via the CRC frame, quarantines, and misses.
func TestDiskCacheInjectedCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[string, int](dir, func(k string) string { return k })
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.Install("corrupt-artifact:p=1;seed=5"); err != nil {
		t.Fatal(err)
	}
	defer faults.Install("")
	c.Store("k", 123456789)
	faults.Install("")
	if _, ok := c.Load("k"); ok {
		t.Fatal("Load served an injected-corrupt entry")
	}
	if c.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", c.Quarantined())
	}
}

// Injected corruption reaches streamed entries too: Commit flips the bit
// Store would have flipped in the same bytes, so the next Load
// quarantines the entry.
func TestDiskCacheInjectedCorruptionStreamed(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[string, int](dir, func(k string) string { return k })
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.Install("corrupt-artifact:p=1;seed=5"); err != nil {
		t.Fatal(err)
	}
	defer faults.Install("")
	e, ok := c.BeginStream("k")
	if !ok {
		t.Fatal("BeginStream failed")
	}
	if _, err := e.F.Write(encodeJSONFrame([]byte("123456789"))); err != nil {
		t.Fatal(err)
	}
	e.Commit()
	faults.Install("")
	if _, ok := c.Load("k"); ok {
		t.Fatal("Load served an injected-corrupt streamed entry")
	}
	if c.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", c.Quarantined())
	}
}
