// Package cache implements the generic set-associative cache substrate used
// for every cache level in the simulator, with a pluggable replacement
// policy interface. All i-cache management schemes evaluated in the paper
// (LRU, SRRIP, SHiP, Hawkeye/Harmony, GHRP, Belady's OPT, the bypassing
// schemes, and ACIC itself) plug into this substrate.
//
// Addresses are handled at block granularity: the cache stores block
// numbers (byte address >> 6), and the "tag" of a line is simply its full
// block number, which keeps lookups exact while letting individual policies
// hash down to partial tags/signatures as the hardware would.
package cache

import "fmt"

// Line is one cache line's bookkeeping state (data is not simulated).
type Line struct {
	Block uint64 // full block number
	Next  int64  // next-use time carried from the filling/hitting context (0 = none)
	Valid bool
}

// AccessContext carries the per-access information policies may consume.
// Fields are optional: the plain LRU policy ignores everything, while OPT
// requires the oracle and GHRP wants the global history hooks it keeps
// internally keyed by block.
type AccessContext struct {
	Block      uint64 // block being accessed / inserted
	AccessIdx  int64  // index in the block-access sequence (oracle time)
	IsPrefetch bool   // access originates from a prefetcher, not demand fetch

	// SelfNext, when non-zero, is the precomputed next-use time of Block
	// strictly after AccessIdx (the O(1) successor-array value supplied by
	// the i-cache layer). Zero means "not precomputed": consumers fall back
	// to the NextUse closure. Next-use times are strictly positive, so zero
	// is unambiguous.
	SelfNext int64
	// ContenderNext, when non-zero, is the carried next-use time of the
	// replacement contender a bypass decision runs against (Line.Next of
	// the victim way). Zero means unknown.
	ContenderNext int64

	NextUse func(block uint64, after int64) int64
}

// NextUseOf returns the oracle next-use time of block strictly after the
// context's access index, or NeverUsed when no oracle is attached or the
// block is never used again.
func (ctx *AccessContext) NextUseOf(block uint64) int64 {
	if ctx == nil || ctx.NextUse == nil {
		return NeverUsed
	}
	return ctx.NextUse(block, ctx.AccessIdx)
}

// NeverUsed is the oracle next-use value for a block with no future access.
const NeverUsed = int64(1) << 62

// Policy decides victim selection and maintains per-line recency state.
// Implementations are owned by exactly one Cache; Reset is called once with
// the geometry before any other method.
type Policy interface {
	// Name identifies the policy in reports (e.g. "lru", "srrip").
	Name() string
	// Reset initializes per-line metadata for a sets x ways cache.
	Reset(sets, ways int)
	// OnHit is invoked after a lookup hits at (set, way).
	OnHit(set, way int, ctx *AccessContext)
	// OnFill is invoked after an insertion filled (set, way).
	OnFill(set, way int, ctx *AccessContext)
	// OnEvict is invoked just before the line at (set, way) is replaced.
	// The line is still valid when called.
	OnEvict(set, way int, ctx *AccessContext)
	// Victim returns the way to replace in set. Invalid ways are filled by
	// the cache itself before Victim is consulted.
	Victim(set int, ctx *AccessContext) int
}

// Config describes cache geometry.
type Config struct {
	Sets int // number of sets; must be a power of two
	Ways int // associativity
}

// Blocks returns the total line capacity.
func (c Config) Blocks() int { return c.Sets * c.Ways }

// Validate reports an error for an unusable geometry.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: sets must be a positive power of two, got %d", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways must be positive, got %d", c.Ways)
	}
	return nil
}

// invalidKey marks an empty line in the key array. Block numbers are byte
// addresses shifted right by 6, so no real block reaches 2^64-1 and lookups
// need no separate valid check on the scan path.
const invalidKey = ^uint64(0)

// Cache is a set-associative cache of block numbers. Line state is stored
// structure-of-arrays: the key array holds one uint64 per line (the block
// number, or invalidKey), so looking up an 8-way set scans a single cache
// line of memory; the carried next-use metadata lives in a parallel array
// touched only on hits and fills.
type Cache struct {
	cfg      Config
	mask     uint64
	keys     []uint64 // sets*ways block numbers, row-major by set; invalidKey = empty
	next     []int64  // sets*ways carried next-use times
	mru      []int32  // per-set most-recently-hit/filled way (way prediction)
	policy   Policy
	occupied int // valid-line count, maintained incrementally

	// Stats
	Hits   uint64
	Misses uint64
	Fills  uint64
	Evicts uint64
}

// New creates a cache with the given geometry and replacement policy.
func New(cfg Config, p Policy) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("cache: nil policy")
	}
	p.Reset(cfg.Sets, cfg.Ways)
	keys := make([]uint64, cfg.Sets*cfg.Ways)
	for i := range keys {
		keys[i] = invalidKey
	}
	return &Cache{
		cfg:    cfg,
		mask:   uint64(cfg.Sets - 1),
		keys:   keys,
		next:   make([]int64, cfg.Sets*cfg.Ways),
		mru:    make([]int32, cfg.Sets),
		policy: p,
	}, nil
}

// MustNew is New but panics on configuration errors; for tests and tables.
func MustNew(cfg Config, p Policy) *Cache {
	c, err := New(cfg, p)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Policy returns the attached replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// SetIndex maps a block to its set.
func (c *Cache) SetIndex(block uint64) int { return int(block & c.mask) }

// lineAt materializes the Line value stored at index i.
func (c *Cache) lineAt(i int) Line {
	if c.keys[i] == invalidKey {
		return Line{}
	}
	return Line{Block: c.keys[i], Next: c.next[i], Valid: true}
}

// Lines returns a snapshot of the lines of a set. Exposed for oracle
// analyses and victim-cache integration (off the hot path: it allocates).
func (c *Cache) Lines(set int) []Line {
	out := make([]Line, c.cfg.Ways)
	base := set * c.cfg.Ways
	for w := range out {
		out[w] = c.lineAt(base + w)
	}
	return out
}

// Lookup finds block without updating replacement state. The set's most
// recently touched way is probed first (way prediction): accesses are
// bursty, so the common hit costs one compare instead of a way scan. The
// match is exact either way — prediction only reorders the probe sequence.
func (c *Cache) Lookup(block uint64) (way int, hit bool) {
	set := c.SetIndex(block)
	base := set * c.cfg.Ways
	if m := int(c.mru[set]); c.keys[base+m] == block {
		return m, true
	}
	for w := 0; w < c.cfg.Ways; w++ {
		if c.keys[base+w] == block {
			return w, true
		}
	}
	return -1, false
}

// Access looks up block, updating hit statistics and replacement state on a
// hit. It does not fill on a miss; the caller decides fill policy (this is
// what lets i-Filter/bypass/ACIC front-ends own the fill path).
func (c *Cache) Access(ctx *AccessContext) (hit bool) {
	way, ok := c.Lookup(ctx.Block)
	if ok {
		c.Hits++
		set := c.SetIndex(ctx.Block)
		c.next[set*c.cfg.Ways+way] = ctx.SelfNext
		c.mru[set] = int32(way)
		c.policy.OnHit(set, way, ctx)
		return true
	}
	c.Misses++
	return false
}

// PeekVictim returns the way and current contents the policy would evict in
// block's set, without performing the eviction. If an invalid way exists it
// is returned with ok=false contents (Line.Valid false).
func (c *Cache) PeekVictim(ctx *AccessContext) (way int, victim Line) {
	set := c.SetIndex(ctx.Block)
	base := set * c.cfg.Ways
	// The empty-way scan matters only while the cache fills; once every
	// line is valid (the steady state — nothing in the simulated datapaths
	// invalidates lines), it can never find one, so skip it.
	if c.occupied < len(c.keys) {
		for w := 0; w < c.cfg.Ways; w++ {
			if c.keys[base+w] == invalidKey {
				return w, Line{}
			}
		}
	}
	w := c.policy.Victim(set, ctx)
	return w, c.lineAt(base + w)
}

// Insert fills block into its set, evicting the policy's victim if the set
// is full. It returns the evicted line (Valid=false when an empty way was
// used). Insert must not be called when the block is already resident.
func (c *Cache) Insert(ctx *AccessContext) (evicted Line) {
	set := c.SetIndex(ctx.Block)
	way, victim := c.PeekVictim(ctx)
	if victim.Valid {
		c.policy.OnEvict(set, way, ctx)
		c.Evicts++
	} else {
		c.occupied++
	}
	i := set*c.cfg.Ways + way
	c.keys[i] = ctx.Block
	c.next[i] = ctx.SelfNext
	c.mru[set] = int32(way)
	c.Fills++
	c.policy.OnFill(set, way, ctx)
	return victim
}

// InsertAt fills block into an explicit way of its set (used by victim-cache
// swap paths), returning the previous contents.
func (c *Cache) InsertAt(way int, ctx *AccessContext) (evicted Line) {
	set := c.SetIndex(ctx.Block)
	i := set*c.cfg.Ways + way
	evicted = c.lineAt(i)
	if evicted.Valid {
		c.policy.OnEvict(set, way, ctx)
		c.Evicts++
	} else {
		c.occupied++
	}
	c.keys[i] = ctx.Block
	c.next[i] = ctx.SelfNext
	c.mru[set] = int32(way)
	c.Fills++
	c.policy.OnFill(set, way, ctx)
	return evicted
}

// Invalidate removes block if present, returning whether it was resident.
func (c *Cache) Invalidate(block uint64) bool {
	way, ok := c.Lookup(block)
	if !ok {
		return false
	}
	c.keys[c.SetIndex(block)*c.cfg.Ways+way] = invalidKey
	c.occupied--
	return true
}

// Contains reports whether block is resident.
func (c *Cache) Contains(block uint64) bool {
	_, ok := c.Lookup(block)
	return ok
}

// Occupancy returns the number of valid lines. The count is maintained
// incrementally by Insert/InsertAt/Invalidate, so this is O(1) and safe to
// call from analysis and victim paths on every access.
func (c *Cache) Occupancy() int { return c.occupied }

// ResetStats zeroes the hit/miss/fill/evict counters.
func (c *Cache) ResetStats() { c.Hits, c.Misses, c.Fills, c.Evicts = 0, 0, 0, 0 }
