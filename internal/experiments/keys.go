package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"acic/internal/core"
	"acic/internal/cpu"
	"acic/internal/experiments/engine"
	"acic/internal/mem"
	"acic/internal/prefetch"
	"acic/internal/workload"
)

// Key derivation for both persistent stores — the result cache (Suite's
// simulation cells) and the workload artifact store (Pipeline's prepare
// stages) — lives here, on one shared prefix of schema version, simulator
// config digest, workload profile digest, and trace length. A config
// change or schema bump therefore invalidates cells and artifacts
// together: stale prepared inputs can never be paired with fresh results
// or vice versa, and there is exactly one bump site (DESIGN.md §9).

// cacheSchemaVersion invalidates every persistent entry — simulation
// results and prepared-workload artifacts alike — when behavior changes in
// a way the hashed default configs don't capture: algorithm changes
// anywhere in the pipeline (workload generation, branch annotation,
// descriptor derivation, the simulators), the artifact encodings, or the
// per-scheme constants hard-coded in NewScheme (filter slots, bypass
// thresholds, victim-cache sizes). Bump it alongside such changes; this is
// the single bump site for both stores.
//
// v2: the data-side memory hierarchy was decoupled from the
// instruction-miss stream into a per-workload precomputed latency
// timeline (DESIGN.md §3), shifting absolute cycle counts.
//
// v3: result-cache keys grew a sampling component (sampleKey) so
// set-sampled quick-look results and full-grid reference results can
// never collide in one store; bumped together with the key-format change
// so a v2 store is retired wholesale rather than partially re-keyed
// (DESIGN.md §10).
//
// v4: a prepared workload is one store entry (the INSZ windows followed by
// the ANNO, DESC, BLKS, NXTA and DLAT sections) instead of four, and the
// trace codec no longer reads v1 streams or INST sections, so v3 stores
// are retired wholesale (DESIGN.md §9).
//
// v5: a workload entry holds only the INSZ windows, DESC (data-level bits
// included) and BLKS; the ANNO, NXTA and DLAT sections, which a load can
// derive from those two, are gone. Each schema's entries live under their
// own store subdirectory (StoreDir), which also retires the flat v4 layout.
const cacheSchemaVersion = 5

// StoreDir maps a local store directory to the subdirectory holding this
// schema's entries, dir/v5, and removes what other schemas left in dir:
// every other v<k>/ subdirectory, and the root-level entries of the flat
// layout used up to v4 (content-addressed .actr and .json files). A
// schema bump thus retires an old store the first time a new build opens
// it, where entries keyed by an old schema would otherwise sit in it
// forever. Removal is best-effort, like the stale tmp/ sweep of an
// opened store. "" and store URLs come back unchanged: a store server
// maps its own root (NewStoreHandler callers pass it through StoreDir).
func StoreDir(dir string) string {
	if dir == "" || engine.IsStoreURL(dir) {
		return dir
	}
	current := SchemaDir()
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() && name != current && isSchemaDir(name) || !ent.IsDir() && isStoreEntry(name) {
			os.RemoveAll(filepath.Join(dir, name))
		}
	}
	return filepath.Join(dir, current)
}

// SchemaDir is the name of the store subdirectory holding this schema's
// entries: "v" and cacheSchemaVersion.
func SchemaDir() string { return "v" + strconv.Itoa(cacheSchemaVersion) }

// isSchemaDir reports whether name is a schema's store subdirectory,
// "v" and a version number.
func isSchemaDir(name string) bool {
	_, err := strconv.ParseUint(strings.TrimPrefix(name, "v"), 10, 32)
	return strings.HasPrefix(name, "v") && err == nil
}

// isStoreEntry reports whether name is a store entry of the flat layout:
// a hex content hash with the .actr or .json extension.
func isStoreEntry(name string) bool {
	base := strings.TrimSuffix(strings.TrimSuffix(name, ".actr"), ".json")
	if base == name || base == "" {
		return false
	}
	_, err := hex.DecodeString(base)
	return err == nil
}

// simConfigHash digests the default simulator configuration (core, memory
// hierarchy, prefetchers, ACIC) and the shape of cpu.Result (%#v of the
// zero value spells out its field names), so editing a config parameter
// or reshaping the result struct invalidates the persistent stores
// mechanically. It does NOT cover scheme-local constants or algorithm
// changes — those need a cacheSchemaVersion bump. All hashed structs are
// value-only, so %#v is stable.
var simConfigHash = sync.OnceValue(func() string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%#v|%#v|%#v|%#v|%#v|%#v",
		cpu.DefaultConfig(), mem.DefaultConfig(), core.DefaultConfig(),
		prefetch.DefaultEntanglingConfig(), prefetch.DefaultStreamConfig(),
		cpu.Result{}))
	return hex.EncodeToString(sum[:16])
})

// profileDigests maps every registered app to the SHA-256 of its
// profile's %#v (so editing a profile parameter invalidates its entries).
// It is built once over workload.All() — every cell key and every served
// ETag reads it — and so holds exactly one entry per registered profile.
var profileDigests = sync.OnceValue(func() map[string]string {
	m := make(map[string]string)
	for _, p := range workload.All() {
		sum := sha256.Sum256(fmt.Appendf(nil, "%#v", p))
		m[p.Name] = hex.EncodeToString(sum[:])
	}
	return m
})

// profileDigest canonicalizes the workload identity behind an app name:
// its registered profile's digest, or a sentinel for unknown names, which
// is neither hashed nor remembered.
func profileDigest(app string) string {
	if d, ok := profileDigests()[app]; ok {
		return d
	}
	return "unknown:" + app
}

// storeKeyPrefix is the shared prefix of every persistent key:
// "v<schema>|cfg:<config digest>|profile:<profile digest>|n:<trace len>".
// Result-cache keys append |scheme|pf|warmup|sample; artifact keys append
// |stage (workload preparation is sampling-independent, so artifact keys
// carry no sample component and one warmed store serves both lanes).
func storeKeyPrefix(profile string, n int) string {
	return fmt.Sprintf("v%d|cfg:%s|profile:%s|n:%d", cacheSchemaVersion, simConfigHash(), profile, n)
}

// sampleKey canonicalizes a run's set-sampling configuration for
// result-cache keys: "full" for the reference lane, "1/<stride>@<offset>"
// for a sampled lane. Sampled and full results therefore live under
// distinct keys in the same CacheDir and can never shadow each other.
func sampleKey(s cpu.SampleConfig) string {
	if !s.Enabled() {
		return "full"
	}
	return fmt.Sprintf("1/%d@%d", s.Stride, s.Offset)
}
