// Package mem models the memory hierarchy below the L1 instruction cache
// per Table II: a 48KB 8-way L1 data cache (5-cycle), a 512KB 8-way L2
// (15-cycle), a 2MB 16-way L3 (35-cycle), and DRAM (one 3200MT/s channel,
// modeled as a fixed access latency at the 4GHz core clock). MSHR counts
// bound the overlap the timing model allows, matching Table II's
// 16/16/32/64.
//
// The data and instruction streams run through separate L2/L3 state. That
// is the one deliberate departure from Table II's unified L2/L3 (DESIGN.md
// §3 quantifies it): the data-access sequence of a trace is fixed by
// instruction order and therefore identical for every i-cache scheme, so
// decoupling it from the scheme-dependent instruction-miss stream makes
// every load/store latency a pure function of the workload. The cpu layer
// exploits exactly that — it replays DataLevel once per workload into a
// per-instruction level (cpu.Program.EnsureDataLatencies) and every
// scheme's simulation reads the shared levels instead of re-simulating the
// data side.
//
// The level caches are plain LRU and nothing consumes their per-line
// metadata, so they use a specialized flat implementation instead of the
// generic policy-pluggable cache.Cache: per-level key/stamp arrays with an
// MRU way probe. Semantics are identical to cache.Cache with policy.LRU
// (same clock, same first-way tie-breaks), which the differential test in
// mem_test.go pins.
package mem

// Latencies are the load-to-use latencies of each level, in core cycles.
type Latencies struct {
	L1I  int64 // hit latency of the i-cache (charged by the front end)
	L1D  int64
	L2   int64
	L3   int64
	DRAM int64
}

// Level is the data-side level that served an access, in lookup order;
// it indexes Latencies.Data.
type Level uint8

const (
	LevelL1D Level = iota
	LevelL2
	LevelL3
	LevelDRAM
)

// Data returns the load-to-use latency of each data-side level, indexed
// by Level.
func (l Latencies) Data() [4]int64 { return [4]int64{l.L1D, l.L2, l.L3, l.DRAM} }

// DefaultLatencies follows Table II; DRAM reflects ~50ns at 4GHz.
func DefaultLatencies() Latencies {
	return Latencies{L1I: 4, L1D: 5, L2: 15, L3: 35, DRAM: 200}
}

// Config sizes the hierarchy.
type Config struct {
	L1DSets, L1DWays int
	L2Sets, L2Ways   int
	L3Sets, L3Ways   int
	Lat              Latencies
}

// DefaultConfig matches Table II geometries at 64B blocks:
// L1d 48KB/8w -> 96 sets is not a power of two, so we model 64 sets x 12
// ways (48KB) to preserve capacity and increase associativity slightly;
// L2 512KB/8w -> 1024 sets; L3 2MB/16w -> 2048 sets.
func DefaultConfig() Config {
	return Config{
		L1DSets: 64, L1DWays: 12,
		L2Sets: 1024, L2Ways: 8,
		L3Sets: 2048, L3Ways: 16,
		Lat: DefaultLatencies(),
	}
}

// invalidKey marks an empty line; block numbers never reach 2^64-1.
const invalidKey = ^uint64(0)

// memLine pairs a line's block with its LRU stamp so the hit path — probe
// the predicted way, refresh its stamp — touches one cache line of host
// memory. The simulated L2/L3 arrays are hundreds of kilobytes, so the
// host-cache behavior of this struct dominates the data-side cost.
type memLine struct {
	block uint64
	stamp int64
}

// level is one flat LRU set-associative cache level.
type level struct {
	mask     uint64
	ways     int
	lines    []memLine // row-major by set; block == invalidKey = empty
	mru      []int32   // most recently touched way per set (probe-first)
	clock    int64
	occupied int
}

func newLevel(sets, ways int) *level {
	if sets <= 0 || sets&(sets-1) != 0 || ways <= 0 {
		panic("mem: bad level geometry")
	}
	lines := make([]memLine, sets*ways)
	for i := range lines {
		lines[i] = memLine{block: invalidKey}
	}
	return &level{
		mask:  uint64(sets - 1),
		ways:  ways,
		lines: lines,
		mru:   make([]int32, sets),
	}
}

// access looks up block and refreshes its LRU stamp on a hit.
func (l *level) access(block uint64) bool {
	set := int(block & l.mask)
	base := set * l.ways
	w := int(l.mru[set])
	if l.lines[base+w].block != block {
		w = -1
		for v := 0; v < l.ways; v++ {
			if l.lines[base+v].block == block {
				w = v
				break
			}
		}
		if w < 0 {
			return false
		}
		l.mru[set] = int32(w)
	}
	l.clock++
	l.lines[base+w].stamp = l.clock
	return true
}

// insert fills block into its set: the first empty way while the level is
// still filling, else the least recently used way (first-way tie-break).
func (l *level) insert(block uint64) {
	set := int(block & l.mask)
	base := set * l.ways
	w := -1
	if l.occupied < len(l.lines) {
		for v := 0; v < l.ways; v++ {
			if l.lines[base+v].block == invalidKey {
				w = v
				l.occupied++
				break
			}
		}
	}
	if w < 0 {
		w = 0
		best := l.lines[base].stamp
		for v := 1; v < l.ways; v++ {
			if s := l.lines[base+v].stamp; s < best {
				w, best = v, s
			}
		}
	}
	l.clock++
	l.lines[base+w] = memLine{block: block, stamp: l.clock}
	l.mru[set] = int32(w)
}

// Hierarchy is the L1d/L2/L3/DRAM model.
type Hierarchy struct {
	cfg Config
	l1d *level
	l2  *level
	l3  *level
	lat Latencies

	// Stats.
	L2InstrHits  uint64
	L3InstrHits  uint64
	DRAMInstr    uint64
	L1DHits      uint64
	L2DataHits   uint64
	L3DataHits   uint64
	DRAMData     uint64
	DataAccesses uint64
}

// New builds the hierarchy.
func New(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		l1d: newLevel(cfg.L1DSets, cfg.L1DWays),
		l2:  newLevel(cfg.L2Sets, cfg.L2Ways),
		l3:  newLevel(cfg.L3Sets, cfg.L3Ways),
		lat: cfg.Lat,
	}
}

// Config returns the configuration the hierarchy was built with.
func (h *Hierarchy) Config() Config { return h.cfg }

// Latencies returns the configured level latencies.
func (h *Hierarchy) Latencies() Latencies { return h.lat }

// InstrMiss services an L1i miss for an instruction block, filling L2/L3 on
// the way, and returns the additional latency beyond the L1i hit time.
func (h *Hierarchy) InstrMiss(block uint64) int64 {
	if h.l2.access(block) {
		h.L2InstrHits++
		return h.lat.L2
	}
	if h.l3.access(block) {
		h.L3InstrHits++
		h.l2.insert(block)
		return h.lat.L3
	}
	h.DRAMInstr++
	h.l3.insert(block)
	h.l2.insert(block)
	return h.lat.DRAM
}

// DataLevel services a load/store to a data block through L1d/L2/L3/DRAM
// and returns the level that served it. The data-side levels are touched
// only by DataLevel, so the level sequence over a fixed access stream is
// deterministic — cpu.Program.EnsureDataLatencies replays a workload's
// loads and stores through a fresh hierarchy exactly once and shares the
// resulting levels across every scheme's simulation.
func (h *Hierarchy) DataLevel(block uint64) Level {
	h.DataAccesses++
	if h.l1d.access(block) {
		h.L1DHits++
		return LevelL1D
	}
	if h.l2.access(block) {
		h.L2DataHits++
		h.l1d.insert(block)
		return LevelL2
	}
	if h.l3.access(block) {
		h.L3DataHits++
		h.l2.insert(block)
		h.l1d.insert(block)
		return LevelL3
	}
	h.DRAMData++
	h.l3.insert(block)
	h.l2.insert(block)
	h.l1d.insert(block)
	return LevelDRAM
}
