package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"acic/internal/core"
	"acic/internal/cpu"
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
const cacheSchemaVersion = 4

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
