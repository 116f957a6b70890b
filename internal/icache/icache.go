// Package icache composes the L1 instruction-cache complex evaluated in the
// paper: a set-associative i-cache with a pluggable replacement policy,
// optionally fronted by an i-Filter, an admission controller (ACIC or a
// bypass policy), and/or backed by a victim cache. Every scheme in Figs 10
// and 11 is expressible as a Config of this package; the VVC alternative,
// which restructures the cache itself, satisfies the same Subsystem
// interface from internal/victim.
package icache

import (
	"fmt"

	"acic/internal/analysis"
	"acic/internal/bypass"
	"acic/internal/cache"
	"acic/internal/core"
	"acic/internal/flat"
	"acic/internal/victim"
)

// Subsystem is the contract the CPU front end drives: demand fetches and
// completed prefetch fills at instruction-block granularity.
type Subsystem interface {
	// Name identifies the scheme in reports.
	Name() string
	// Fetch processes a demand fetch. accessIdx is the index in the block-
	// access sequence (oracle time); cycle is the current core cycle (used
	// by ACIC's update pipelines). It returns true on a hit in any
	// structure of the complex (i-cache, i-Filter, or victim cache).
	Fetch(block uint64, accessIdx, cycle int64) bool
	// PrefetchFill installs a completed prefetch through the normal fill
	// path. It must be a no-op if the block is already resident.
	PrefetchFill(block uint64, accessIdx, cycle int64)
	// Contains reports residency (for prefetch filtering), with no side
	// effects.
	Contains(block uint64) bool
	// Stats returns cumulative counters.
	Stats() Stats
}

// Stats are the cumulative demand-access counters of a subsystem. Under
// set sampling they cover the sampled constituencies only (Skipped counts
// the bypassed accesses); every rate derived from them is scale-free.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	FilterHits uint64
	L1Hits     uint64
	VCHits     uint64
	Skipped    uint64 // demand accesses bypassed by the set-sampling filter
}

// MissRate returns demand misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Config selects and sizes one i-cache management scheme.
type Config struct {
	// Name overrides the derived scheme name (optional).
	Name string
	// Geometry of the L1 i-cache (default 64 sets x 8 ways = 32KB).
	Sets, Ways int
	// Policy is the replacement policy constructor's product. Required.
	Policy cache.Policy
	// Filter enables an i-Filter of the given size in front of the cache
	// (0 = none). Mutually exclusive with nothing; combines with Bypass or
	// ACIC, which then act on filter evictions.
	FilterSlots int
	// ACIC attaches an admission-controlled datapath. When set, Bypass must
	// be nil and FilterSlots is taken from the ACIC config.
	ACIC *core.Config
	// Bypass decides insertion for incoming blocks (direct fill path when
	// FilterSlots == 0, filter-eviction path otherwise).
	Bypass bypass.Policy
	// VictimBlocks attaches a fully-associative victim cache (0 = none).
	VictimBlocks int
	// NextUse attaches the oracle used by OPT replacement and OPT bypass.
	NextUse func(block uint64, after int64) int64
	// Successors, when set, is the workload's next-use index, read for
	// every demand access through the complex's own in-order cursor
	// (analysis.NextUseOracle.Cursor): the oracle schemes answer "when is
	// the block I am touching used next" without a search, and carry the
	// value on cache lines and i-Filter slots so victim selection and
	// bypass decisions never query NextUse. The caller must drive Fetch
	// with accessIdx values that index the sequence the index was built
	// over (the CPU front end does). Optional: without it, consumers fall
	// back to NextUse.
	Successors *analysis.NextUseOracle
	// Sample restricts the complex to the sampled set constituencies
	// (SDM-style set sampling; zero value = full simulation). Accesses to
	// non-sampled constituencies bypass every structure with one mask
	// compare, and the fully-associative structures shared across sets
	// (i-Filter, victim cache — including the ACIC filter) are scaled to
	// the sampled traffic fraction so their residency windows match the
	// full run's (see cache.SampleFilter.ScaleShared).
	Sample cache.SampleFilter
}

// DefaultSets and DefaultWays are the paper's 32KB 8-way L1i baseline
// geometry, shared by every evaluated scheme and by the set-sampling
// stride arithmetic in the experiment harness.
const (
	DefaultSets = 64
	DefaultWays = 8
)

// DefaultGeometry fills Sets/Ways with the paper's 32KB 8-way baseline when
// unset.
func (c *Config) DefaultGeometry() {
	if c.Sets == 0 {
		c.Sets = DefaultSets
	}
	if c.Ways == 0 {
		c.Ways = DefaultWays
	}
}

// Complex is the standard composition: L1 + optional filter/admission/VC.
type Complex struct {
	name   string
	l1     *cache.Cache
	filter *core.IFilter
	acic   *core.ACIC
	byp    bypass.Policy
	vc     *victim.VC
	succ   *analysis.NextUseCursor
	sample cache.SampleFilter
	stats  Stats

	// actx is the reusable per-access context. One access may repopulate
	// it several times (demand lookup, then the fill candidate), but it
	// never escapes an access, so steady-state fetching performs zero heap
	// allocations.
	actx cache.AccessContext

	// prefFilled tracks blocks installed by a prefetch with no demand
	// access yet; the first demand to such a block is "prefetch covered"
	// (consumed by prefetch-aware admission control).
	prefFilled *flat.Table
}

// New builds a Complex from cfg.
func New(cfg Config) (*Complex, error) {
	cfg.DefaultGeometry()
	if cfg.Policy == nil {
		return nil, fmt.Errorf("icache: config requires a replacement policy")
	}
	if cfg.ACIC != nil && cfg.Bypass != nil {
		return nil, fmt.Errorf("icache: ACIC and Bypass are mutually exclusive")
	}
	l1, err := cache.New(cache.Config{Sets: cfg.Sets, Ways: cfg.Ways}, cfg.Policy)
	if err != nil {
		return nil, err
	}
	c := &Complex{l1: l1, byp: cfg.Bypass, sample: cfg.Sample, prefFilled: flat.NewTable(64)}
	if cfg.Successors != nil {
		c.succ = cfg.Successors.Cursor()
	}
	c.actx.NextUse = cfg.NextUse
	// The shared fully-associative structures shrink to the sampled traffic
	// fraction (no-ops when sampling is off) so their residency windows —
	// measured in arrivals — match the full-size structures under full
	// traffic.
	if cfg.ACIC != nil {
		cc := *cfg.ACIC
		cc.FilterSlots = cfg.Sample.ScaleShared(cc.FilterSlots)
		c.acic = core.New(cc)
		c.filter = c.acic.Filter
	} else if cfg.FilterSlots > 0 {
		c.filter = core.NewIFilter(cfg.Sample.ScaleShared(cfg.FilterSlots))
	}
	if cfg.VictimBlocks > 0 {
		c.vc = victim.NewVC(cfg.Sample.ScaleShared(cfg.VictimBlocks))
	}
	c.name = cfg.Name
	if c.name == "" {
		c.name = deriveName(cfg)
	}
	return c, nil
}

// MustNew is New but panics on configuration errors.
func MustNew(cfg Config) *Complex {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func deriveName(cfg Config) string {
	switch {
	case cfg.ACIC != nil:
		return "acic-" + cfg.ACIC.Variant.String()
	case cfg.Bypass != nil && cfg.FilterSlots > 0:
		return cfg.Bypass.Name() + "+ifilter"
	case cfg.Bypass != nil:
		return cfg.Bypass.Name()
	case cfg.FilterSlots > 0:
		return cfg.Policy.Name() + "+ifilter"
	case cfg.VictimBlocks > 0:
		return cfg.Policy.Name() + "+vc"
	default:
		return cfg.Policy.Name()
	}
}

// Name implements Subsystem.
func (c *Complex) Name() string { return c.name }

// L1 exposes the underlying cache (inspection, tests).
func (c *Complex) L1() *cache.Cache { return c.l1 }

// ACIC exposes the admission controller when configured (else nil).
func (c *Complex) ACIC() *core.ACIC { return c.acic }

// Filter exposes the i-Filter when configured (else nil).
func (c *Complex) Filter() *core.IFilter { return c.filter }

// ctx repopulates the reusable access context (NextUse is constant and set
// at construction). The pointer is only valid until the next ctx call;
// policies must not retain it (none do).
func (c *Complex) ctx(block uint64, accessIdx, selfNext int64, prefetch bool) *cache.AccessContext {
	c.actx.Block = block
	c.actx.AccessIdx = accessIdx
	c.actx.IsPrefetch = prefetch
	c.actx.SelfNext = selfNext
	c.actx.ContenderNext = 0
	return &c.actx
}

// demandNext returns the next-use time of block, demanded at accessIdx,
// from the complex's successor cursor, or 0 ("unknown") when none is
// attached.
func (c *Complex) demandNext(block uint64, accessIdx int64) int64 {
	if c.succ == nil {
		return 0
	}
	return c.succ.Next(block, accessIdx)
}

// SampleFilter returns the constituency filter the complex runs under
// (the zero filter for a full simulation).
func (c *Complex) SampleFilter() cache.SampleFilter { return c.sample }

// Fetch implements Subsystem.
func (c *Complex) Fetch(block uint64, accessIdx, cycle int64) bool {
	if !c.sample.Sampled(block) {
		// Non-sampled constituency: presumed hit, no state anywhere in the
		// complex is touched. One mask compare; the full-simulation filter
		// matches every block.
		c.stats.Skipped++
		return true
	}
	c.stats.Accesses++
	sets := c.l1.Config().Sets
	set := c.l1.SetIndex(block)
	if c.acic != nil {
		// Prefetch-covered tracking is consumed only by ACIC's admission
		// control, so only ACIC complexes pay for it.
		prefetched := c.prefFilled.Contains(block)
		if prefetched {
			c.prefFilled.Delete(block)
		}
		c.acic.Tick(cycle)
		c.acic.OnFetch(block, set, sets, prefetched)
	}
	if c.byp != nil {
		c.byp.OnFetch(block)
	}
	selfNext := c.demandNext(block, accessIdx)
	// Concurrent search of i-Filter and i-cache (Fig 2).
	if c.filter != nil && c.filter.Access(block, selfNext) {
		c.stats.Hits++
		c.stats.FilterHits++
		return true
	}
	ctx := c.ctx(block, accessIdx, selfNext, false)
	if c.l1.Access(ctx) {
		c.stats.Hits++
		c.stats.L1Hits++
		return true
	}
	if c.vc != nil && c.vc.Probe(block) {
		// Swap the victim-cache hit into the i-cache.
		evicted := c.l1.Insert(ctx)
		if evicted.Valid {
			c.vc.Insert(evicted.Block)
		}
		c.stats.Hits++
		c.stats.VCHits++
		return true
	}
	c.stats.Misses++
	c.fill(block, accessIdx, cycle, selfNext, false)
	return false
}

// PrefetchFill implements Subsystem.
func (c *Complex) PrefetchFill(block uint64, accessIdx, cycle int64) {
	if !c.sample.Sampled(block) {
		return
	}
	if c.Contains(block) {
		return
	}
	if c.acic != nil {
		c.prefFilled.Put(block, 1)
	}
	c.fill(block, accessIdx, cycle, 0, true)
}

// fill routes a missed or prefetched block through the configured fill
// path: into the i-Filter when present (with admission control on the
// filter's victim), else directly into the i-cache subject to bypass.
// next is the incoming block's next use: a demand miss passes the value
// Fetch read from the successor cursor. A prefetched block is not the
// block demanded at accessIdx, so its value is 0 ("unknown"); consumers
// that ever examine it (OPT victim scans, bypass decisions) resolve it
// lazily with the oracle — most prefetched blocks are demanded first,
// which fills the value for free.
func (c *Complex) fill(block uint64, accessIdx, cycle, next int64, prefetch bool) {
	sets := c.l1.Config().Sets
	if c.filter != nil {
		victimBlock, victimNext, evicted := c.filter.Insert(block, next)
		if !evicted {
			return
		}
		// The filter victim is the insertion candidate now, and its slot
		// carried its next-use time, so the oracle bypass decision below
		// needs no lookups.
		vctx := c.ctx(victimBlock, accessIdx, victimNext, prefetch)
		way, contender := c.l1.PeekVictim(vctx)
		admit := true
		switch {
		case c.acic != nil:
			admit = c.acic.Decide(victimBlock, contender.Block, c.l1.SetIndex(victimBlock), sets, accessIdx)
			if !contender.Valid {
				admit = true // empty way: nothing to pollute
			}
		case c.byp != nil:
			vctx.ContenderNext = contender.Next
			admit = c.byp.ShouldInsert(victimBlock, contender.Block, contender.Valid, vctx)
		}
		if !admit {
			return
		}
		ev := c.l1.InsertAt(way, vctx)
		if ev.Valid {
			c.notifyEvict(ev.Block)
			if c.vc != nil {
				c.vc.Insert(ev.Block)
			}
		}
		return
	}
	ctx := c.ctx(block, accessIdx, next, prefetch)
	if c.byp != nil {
		_, contender := c.l1.PeekVictim(ctx)
		ctx.ContenderNext = contender.Next
		if !c.byp.ShouldInsert(block, contender.Block, contender.Valid, ctx) {
			return
		}
	}
	ev := c.l1.Insert(ctx)
	if ev.Valid {
		c.notifyEvict(ev.Block)
		if c.vc != nil {
			c.vc.Insert(ev.Block)
		}
	}
}

// evictObserver is implemented by bypass policies that train on evictions
// (e.g. the evicted-address filter).
type evictObserver interface{ OnEvict(block uint64) }

// notifyEvict forwards an L1 eviction to an interested bypass policy.
func (c *Complex) notifyEvict(block uint64) {
	if o, ok := c.byp.(evictObserver); ok {
		o.OnEvict(block)
	}
}

// Contains implements Subsystem. Non-sampled blocks are never resident:
// the complex holds no state for them.
func (c *Complex) Contains(block uint64) bool {
	if !c.sample.Sampled(block) {
		return false
	}
	if c.filter != nil && c.filter.Contains(block) {
		return true
	}
	return c.l1.Contains(block)
}

// Stats implements Subsystem.
func (c *Complex) Stats() Stats { return c.stats }

// VVCAdapter adapts victim.VVC to the Subsystem interface.
type VVCAdapter struct {
	V      *victim.VVC
	sample cache.SampleFilter
	stats  Stats
}

// NewVVC builds a VVC subsystem with the given geometry.
func NewVVC(cfg victim.VVCConfig) *VVCAdapter {
	return NewSampledVVC(cfg, cache.SampleFilter{})
}

// NewSampledVVC builds a VVC subsystem restricted to the sampled set
// constituencies (the VVC's sets are indexed by the same block low bits as
// the standard complex, so the same constituency filter applies).
func NewSampledVVC(cfg victim.VVCConfig, sample cache.SampleFilter) *VVCAdapter {
	return &VVCAdapter{
		V:      victim.NewVVC(cfg),
		sample: sample,
	}
}

// Name implements Subsystem.
func (a *VVCAdapter) Name() string { return "vvc" }

// Fetch implements Subsystem.
func (a *VVCAdapter) Fetch(block uint64, _, _ int64) bool {
	if !a.sample.Sampled(block) {
		a.stats.Skipped++
		return true
	}
	a.stats.Accesses++
	if a.V.Fetch(block) {
		a.stats.Hits++
		a.stats.L1Hits++
		return true
	}
	a.stats.Misses++
	return false
}

// PrefetchFill implements Subsystem: VVC fills via its normal path; demand
// hit/miss statistics are unaffected.
func (a *VVCAdapter) PrefetchFill(block uint64, _, _ int64) {
	if !a.sample.Sampled(block) {
		return
	}
	a.V.Fill(block)
}

// Contains implements Subsystem.
func (a *VVCAdapter) Contains(block uint64) bool {
	return a.sample.Sampled(block) && a.V.Contains(block)
}

// Stats implements Subsystem.
func (a *VVCAdapter) Stats() Stats { return a.stats }
