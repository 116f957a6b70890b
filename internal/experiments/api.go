package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"acic/internal/api"
)

// Conversions between the suite's Cell and the wire Cell in internal/api.
// The two types are kept distinct on purpose: api must not import the
// experiments layer (it is shared with the engine below it), and the
// suite must not couple its planning types to a wire contract that is
// versioned independently. These two functions are the entire seam.

// API returns the wire form of c.
func (c Cell) API() api.Cell {
	return api.Cell{App: c.App, Scheme: c.Scheme, Prefetcher: c.Prefetcher}
}

// CellFromAPI returns the suite form of a wire cell.
func CellFromAPI(a api.Cell) Cell {
	return Cell{App: a.App, Scheme: a.Scheme, Prefetcher: a.Prefetcher}
}

// CellKey returns the content-addressed result-cache key of c — the
// same string the disk store files the cell's result under (see
// cacheKey). acic-serve derives /v1/cells ETags from it: the key hashes
// everything the result depends on (schema version, config digest,
// workload profile digest, trace length, scheme, prefetcher, warmup,
// sampling), so equal keys imply byte-equal results and any HTTP cache
// layer can trust a 304.
func (s *Suite) CellKey(c Cell) string {
	return s.cacheKey(c)
}

// GridKey digests the suite configuration's entire result space: one
// line per known workload (datacenter and SPEC alike) of the shared
// store-key prefix plus warmup and sampling components — everything
// cacheKey hashes except the scheme × prefetcher coordinates. Two
// suites with equal GridKeys produce byte-identical results for every
// cell and every figure, which is what lets acic-serve use it as the
// ETag seed for /v1/figures/{name}.
func (s *Suite) GridKey() string {
	s.init() // resolves N
	h := sha256.New()
	apps := append(s.AppNames(), s.SPECNames()...)
	for _, app := range apps {
		opts := s.options(app)
		fmt.Fprintf(h, "%s|warmup:%g|sample:%s\n",
			storeKeyPrefix(profileDigest(app), s.N),
			opts.WarmupFrac, sampleKey(opts.Sample))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
