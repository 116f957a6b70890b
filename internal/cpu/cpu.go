// Package cpu is the trace-driven timing model of the simulated core
// (Table II): a 6-wide decoupled front end with a fetch target queue that
// realizes fetch-directed prefetching (FDP), an i-cache subsystem slot where
// every evaluated scheme plugs in, and a 352-entry ROB backend that retires
// up to 6 instructions per cycle with data-side latencies taken from the
// workload's precomputed data timeline (Program.EnsureDataLatencies).
//
// The model is detailed where the paper's experiments live — the
// instruction supply path — and calibrated-approximate elsewhere: the
// backend executes instructions with class-based completion latencies and
// in-order retirement from a ROB-sized window, which preserves the relative
// cost of front-end stalls across schemes (the quantity all figures
// report). Wrong-path fetch effects are not modeled (standard for
// trace-driven simulation); branch redirects charge the Table II penalties.
package cpu

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"acic/internal/branch"
	"acic/internal/cache"
	"acic/internal/icache"
	"acic/internal/mem"
	"acic/internal/prefetch"
	"acic/internal/trace"
)

// SampleConfig selects SDM-style set-sampled simulation: only the i-cache
// sets of one constituency (set index ≡ Offset mod Stride) are simulated.
// Demand fetches and prefetches to non-sampled constituencies bypass the
// i-cache subsystem and never stall the front end; the Result records the
// sampled access count so miss and stall statistics extrapolate back to
// the whole cache (Result.Extrapolated). The zero value disables sampling
// and leaves the simulation bit-identical to a build without this feature.
type SampleConfig struct {
	Stride int // simulate one in Stride set constituencies (0 or 1 = full)
	Offset int // which constituency, in [0, Stride)
}

// Enabled reports whether sampling is on.
func (c SampleConfig) Enabled() bool { return c.Stride > 1 }

// Validate reports an error for an unusable sampling configuration.
func (c SampleConfig) Validate() error {
	_, err := cache.NewSampleFilter(c.Stride, c.Offset)
	return err
}

// Filter returns the constituency filter (the zero filter when disabled).
// It panics on an invalid configuration; call Validate first on untrusted
// values.
func (c SampleConfig) Filter() cache.SampleFilter {
	f, err := cache.NewSampleFilter(c.Stride, c.Offset)
	if err != nil {
		panic(fmt.Sprintf("cpu: %v", err))
	}
	return f
}

// Config are the core parameters (Table II defaults via DefaultConfig).
type Config struct {
	FetchWidth        int   // instructions fetched per cycle (6)
	FTQBlocks         int   // FDP run-ahead depth in fetch blocks (24)
	ROB               int   // reorder-buffer entries (352)
	RetireWidth       int   // instructions retired per cycle (6)
	PipelineDepth     int64 // fetch-to-complete depth for non-memory ops
	MispredictPenalty int64 // execute-resolved redirect penalty
	MisfetchPenalty   int64 // decode-resolved redirect penalty (BTB miss)
	MaxPrefetches     int   // outstanding prefetch limit (L1i MSHRs, 16)
	PrefetchPerCycle  int   // prefetch issue bandwidth
	L2ServiceInterval int64 // min cycles between instruction-side L2 requests

	UseFDP bool // enable the fetch-directed prefetcher
	// Extra is an additional table-driven prefetcher (e.g. entangling);
	// nil for none.
	Extra prefetch.Prefetcher

	// Sample enables set-sampled simulation (zero value = full simulation).
	Sample SampleConfig
}

// DefaultConfig returns the Table II core with FDP enabled.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        6,
		FTQBlocks:         24,
		ROB:               352,
		RetireWidth:       6,
		PipelineDepth:     12,
		MispredictPenalty: 14,
		MisfetchPenalty:   6,
		MaxPrefetches:     8,
		PrefetchPerCycle:  1,
		L2ServiceInterval: 4,
		UseFDP:            true,
	}
}

// Validate reports an error for a configuration the cycle loop cannot run:
// a ROB, fetch or retire width below 1 never makes progress, a negative
// pipeline depth completes instructions before they dispatch, and the
// sampling configuration must be usable.
func (c Config) Validate() error {
	switch {
	case c.ROB < 1:
		return fmt.Errorf("cpu: ROB %d, want at least 1", c.ROB)
	case c.FetchWidth < 1:
		return fmt.Errorf("cpu: FetchWidth %d, want at least 1", c.FetchWidth)
	case c.RetireWidth < 1:
		return fmt.Errorf("cpu: RetireWidth %d, want at least 1", c.RetireWidth)
	case c.PipelineDepth < 0:
		return fmt.Errorf("cpu: PipelineDepth %d, want at least 0", c.PipelineDepth)
	}
	return c.Sample.Validate()
}

// Result reports the simulation outcome, measured after warmup.
type Result struct {
	Cycles        int64
	Instructions  int64
	BlockAccesses int64

	DemandMisses uint64 // demand fetches that missed (incl. late prefetches)
	LateMisses   uint64 // demand fetches that hit an in-flight prefetch
	Prefetches   uint64 // prefetches issued

	// Stall breakdown: cycles the front end spent waiting on instruction
	// fills vs. branch redirects (disjoint; the remainder of the cycle
	// budget is productive fetch or backend-bound).
	IMissStallCycles    int64
	RedirectStallCycles int64

	// Set-sampling provenance. SampleStride is the stride the run was
	// simulated under (0 = full simulation); SampledAccesses counts the
	// post-warmup demand accesses that fell in the sampled constituencies.
	// Raw sampled counters cover the sampled subset only, until
	// Extrapolated scales them back to the whole cache.
	SampleStride    int
	SampledAccesses int64

	ICache icache.Stats // subsystem counters over the whole run (incl. warmup)
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// MPKI returns demand L1i misses per kilo-instruction.
func (r Result) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return 1000 * float64(r.DemandMisses) / float64(r.Instructions)
}

// Extrapolated scales a set-sampled Result back to the whole cache; it
// returns the receiver unchanged for a full-simulation run. Demand misses,
// late misses, prefetches, and i-miss stall cycles are multiplied by the
// measured access ratio (total demand accesses over sampled demand
// accesses — more faithful than the configured stride when constituencies
// see uneven traffic), and the cycle count absorbs the scaled-up stall so
// speedups computed from sampled cells are first-order comparable to full
// runs. The ICache stats are left as measured — they are the sampled
// subset's ground truth, and every rate derived from them (miss rate,
// filter-hit fraction) is already scale-free. DESIGN.md §10 documents the
// error model and the validated bounds.
func (r Result) Extrapolated() Result {
	if r.SampleStride <= 1 {
		return r
	}
	scale := float64(r.SampleStride)
	if r.SampledAccesses > 0 {
		scale = float64(r.BlockAccesses) / float64(r.SampledAccesses)
	}
	round := func(v uint64) uint64 { return uint64(float64(v)*scale + 0.5) }
	out := r
	out.DemandMisses = round(r.DemandMisses)
	out.LateMisses = round(r.LateMisses)
	out.Prefetches = round(r.Prefetches)
	out.IMissStallCycles = int64(float64(r.IMissStallCycles)*scale + 0.5)
	out.Cycles = r.Cycles + (out.IMissStallCycles - r.IMissStallCycles)
	return out
}

// inflight tracks outstanding prefetches.
type inflight struct {
	block   uint64
	readyAt int64
}

// Per-instruction descriptor bits, precomputed in NewProgram. The fetch
// and run-ahead loops each visit every dynamic instruction; one descriptor
// byte answers their common questions (does this instruction open a new
// fetch block / touch memory / end the fetch group / redirect the front
// end / how long does its load take) without loading the 32-byte Inst
// record, the branch annotation or a latency array, which cuts the loops'
// memory traffic to a sequential byte stream.
//
// Bits 6-7 hold a memory instruction's data level (mem.Level: L1D, L2,
// L3 or DRAM), installed with the data-side timeline (EnsureDataLatencies,
// AdoptDataLatencies, ProgramBuilder); its latency is
// levelLat[d>>descLevelShift]. They are 0 until then and on every other
// instruction, and the DESC artifact section carries them masked out
// (DescBytes).
const (
	descNewBlock uint8 = 1 << iota // first instruction of a block access
	descLoad
	descStore
	descGroupEnd // taken branch: ends the fetch group
	descMispredict
	descMisfetch

	descRunEvent = descNewBlock | descMispredict | descMisfetch

	descLevelShift       = 6
	descLevel      uint8 = 3 << descLevelShift
)

// Program is a trace preprocessed for simulation: flat, scheme-independent
// per-instruction and per-access arrays that every scheme run over a
// workload shares. The simulation loops read only the descriptor byte
// stream (data levels included), the collapsed block-access sequence (one
// uint64 per access, indexed by access index) and the 4-entry level
// latency table — never the 32-byte Inst records or the DataLat timeline,
// which matters when the per-access budget is a few hundred nanoseconds.
type Program struct {
	Trace *trace.Trace
	// Ann is the branch annotation per instruction, as NewProgram takes
	// it. A ProgramBuilder and NewProgramFromParts leave it nil (a store
	// load outside a Suite sets it from the ANNO payload): the descriptors
	// carry each redirect, and AnnotationBytes reads it from them.
	Ann    []branch.Annotation
	Desc   []uint8  // descriptor byte per instruction
	Blocks []uint64 // collapsed block-access sequence (== Trace.BlockAccesses())
	// MemBlk is the data block per instruction (loads/stores; 0
	// otherwise), set by NewProgram and by a store load that decodes the
	// trace. Only EnsureDataLatencies reads it, so an owner may set it to
	// nil once the latency timeline is installed (EnsureDataLatencies or
	// AdoptDataLatencies); EnsureDataLatencies is then a no-op. A
	// ProgramBuilder never builds it.
	MemBlk []uint64

	// DataLat is the data-side latency timeline: the load-to-use latency,
	// in cycles, of the memory operation at each instruction index (0 for
	// non-memory instructions). The data-access sequence is fixed by
	// instruction order — the front end issues every load and store exactly
	// once, in order, regardless of i-cache scheme or timing — so the
	// timeline is scheme-independent and computed once per workload by
	// EnsureDataLatencies. Populated lazily by NewSimulator when the caller
	// has not done it explicitly. The simulator reads the same latencies
	// through the descriptors' level bits and levelLat, so an owner may set
	// DataLat to nil once the timeline is installed, and a ProgramBuilder
	// and AdoptDataLatencies never build it; DataLatBytes derives the DLAT
	// artifact section from the level bits. It is kept for callers that
	// compare timelines.
	DataLat []int16

	dataLatOnce sync.Once
	dataLatCfg  mem.Config
	// levelLat is dataLatCfg's latency per data level (mem.Level), indexed
	// by a descriptor's level bits.
	levelLat [4]int64

	// runEvents is a bitmap over instructions with a run-ahead event bit
	// (descRunEvent) set, letting the run-ahead walker skip straight-line
	// stretches 64 instructions per word instead of byte by byte.
	runEvents []uint64

	// Sampled-lane index (built lazily by ensureSampleIndex, shared by
	// every scheme cell over this workload): samplePace is the cumulative
	// fetch-slot prefix (group-end, redirect-penalty, and roundup costs
	// baked in) that converts an instruction index to a fetch cycle with
	// one add and one divide; sampleEvents flags redirects and the
	// long-latency loads whose completions can back up the ROB; and
	// sampleAccInstr maps each block access to its first instruction.
	// sampleAccK/sampleAccA list the accesses of one constituency filter
	// (instruction index and access index), cached per filter under
	// sampleListMu so the walk visits only sampled accesses.
	samplePace     []int64
	sampleEvents   []uint64
	sampleAccInstr []int32
	sampleOnce     sync.Once

	sampleListMu     sync.Mutex
	sampleListFilter cache.SampleFilter
	sampleAccK       []int32
	sampleAccA       []int32
}

// EnsureDataLatencies computes the data-side latency timeline by replaying
// the program's loads and stores, in instruction order, through a fresh
// data hierarchy of the given configuration. It runs at most once per
// Program (subsequent same-config calls, even concurrent ones, are
// no-ops), so N scheme simulations over one workload pay for the data
// side once instead of N times. A Program is bound to one hierarchy
// configuration: asking for a timeline under a different config would
// silently hand every simulation the wrong latencies, so it panics
// instead — build a separate Program to simulate another hierarchy.
//
// The replay also writes each memory instruction's data level into its
// descriptor, which is what the simulation loops read.
func (p *Program) EnsureDataLatencies(cfg mem.Config) {
	p.dataLatOnce.Do(func() {
		p.setDataConfig(cfg)
		h := mem.New(cfg)
		lat := make([]int16, len(p.Desc))
		for i, d := range p.Desc {
			if d&(descLoad|descStore) != 0 {
				l := h.DataLevel(p.MemBlk[i])
				p.Desc[i] = withLevel(d, l)
				lat[i] = int16(p.levelLat[l])
			}
		}
		p.DataLat = lat
	})
	p.checkDataConfig(cfg)
}

// setDataConfig binds the Program to the hierarchy configuration its
// data-side timeline is installed under. Callers hold dataLatOnce.
func (p *Program) setDataConfig(cfg mem.Config) {
	p.dataLatCfg = cfg
	p.levelLat = levelTable(cfg)
}

// levelTable returns cfg's latency per data level in the timeline's unit,
// the DLAT section's int16, so the table and DataLat read alike.
func levelTable(cfg mem.Config) [4]int64 {
	var t [4]int64
	for l, lat := range cfg.Lat.Data() {
		t[l] = int64(int16(lat))
	}
	return t
}

// checkDataConfig panics when cfg is not the configuration the Program's
// timeline was installed under.
func (p *Program) checkDataConfig(cfg mem.Config) {
	if p.dataLatCfg != cfg {
		panic("cpu: data-latency timeline was computed under a different mem.Config; use one Program per hierarchy configuration")
	}
}

// withLevel returns descriptor d carrying data level l.
func withLevel(d uint8, l mem.Level) uint8 {
	return d&^descLevel | uint8(l)<<descLevelShift
}

// redirectDesc returns the descriptor bit standing for redirect r (0 for
// none); descRedirect is its inverse.
func redirectDesc(r branch.Redirect) uint8 {
	switch r {
	case branch.RedirectMispredict:
		return descMispredict
	case branch.RedirectMisfetch:
		return descMisfetch
	}
	return 0
}

// descRedirect returns the branch redirect descriptor d carries.
func descRedirect(d uint8) branch.Redirect {
	switch {
	case d&descMispredict != 0:
		return branch.RedirectMispredict
	case d&descMisfetch != 0:
		return branch.RedirectMisfetch
	}
	return branch.RedirectNone
}

// DescBytes appends the descriptors to dst as the DESC artifact section
// carries them: with the data-level bits masked out. The levels travel in
// the DLAT section, so the section is the same whatever the hierarchy.
func (p *Program) DescBytes(dst []byte) []byte {
	dst = slices.Grow(dst, len(p.Desc))
	for _, d := range p.Desc {
		dst = append(dst, d&^descLevel)
	}
	return dst
}

// nextRunEvent returns the smallest index >= i whose descriptor carries a
// run-ahead event bit, or n when none remains.
func (p *Program) nextRunEvent(i, n int) int {
	w := i >> 6
	word := p.runEvents[w] & (^uint64(0) << uint(i&63))
	for word == 0 {
		w++
		if w >= len(p.runEvents) {
			return n
		}
		word = p.runEvents[w]
	}
	if j := w<<6 + bits.TrailingZeros64(word); j < n {
		return j
	}
	return n
}

// NewProgram preprocesses tr under its branch annotations ann
// (branch.FrontEnd.Annotate) in one pass.
func NewProgram(tr *trace.Trace, ann []branch.Annotation) *Program {
	if len(ann) != len(tr.Insts) {
		panic("cpu: annotation length mismatch")
	}
	p := &Program{
		Trace:     tr,
		Ann:       ann,
		Desc:      make([]uint8, len(tr.Insts)),
		Blocks:    make([]uint64, 0, len(tr.Insts)/4+1),
		MemBlk:    make([]uint64, len(tr.Insts)),
		runEvents: make([]uint64, (len(tr.Insts)+63)/64+1),
	}
	var prevBlock uint64
	for i := range tr.Insts {
		in := &tr.Insts[i]
		var d uint8
		b := in.Block()
		if i == 0 || b != prevBlock {
			d |= descNewBlock
			p.Blocks = append(p.Blocks, b)
		}
		prevBlock = b
		switch in.Class {
		case trace.ClassLoad:
			d |= descLoad
			p.MemBlk[i] = trace.Block(in.MemAddr)
		case trace.ClassStore:
			d |= descStore
			p.MemBlk[i] = trace.Block(in.MemAddr)
		}
		if in.Class.IsBranch() && (in.Class != trace.ClassCondBranch || in.Taken) {
			d |= descGroupEnd
		}
		d |= redirectDesc(ann[i].Redirect)
		p.Desc[i] = d
		if d&descRunEvent != 0 {
			p.runEvents[i>>6] |= 1 << uint(i&63)
		}
	}
	return p
}

// Len returns the number of dynamic instructions.
func (p *Program) Len() int { return len(p.Desc) }

// Simulator runs one (trace, scheme) simulation.
type Simulator struct {
	cfg  Config
	sub  icache.Subsystem
	hier *mem.Hierarchy
	prog *Program

	// levelLat is the Program's latency per data level (Program.levelLat).
	levelLat [4]int64

	// Timing state. Retirement is closed-form (see fetch): each
	// instruction's retire cycle is fixed at dispatch, so rob is a ring of
	// non-decreasing retire cycles, oldest first, and an entry leaves it
	// only when fetch needs its slot. lastRet is the youngest dispatched
	// instruction's retire cycle (-1 before the first dispatch) and
	// lastRetN how many instructions retire in that cycle.
	cycle       int64
	stallUntil  int64
	stallIsMiss bool // current stall reason: true = instruction fill
	rob         []int64
	robHead     int
	robLen      int
	lastRet     int64
	lastRetN    int

	// Fetch state.
	fetchIdx  int
	lastBlock uint64
	haveBlock bool
	retrying  bool // current instruction's demand access already performed (stall retry)
	accessIdx int64

	// FDP run-ahead state.
	runIdx       int
	runLastBlk   uint64
	runHaveBlk   bool
	runSkipIssue bool // current run-ahead event already counted; skip its issue on retry
	runAccesses  int64
	blockedAt    int // trace index of the mispredict blocking run-ahead (-1 none)

	// Prefetch state.
	pfInFlight  []inflight
	pfScratch   []uint64
	pfNextReady int64 // earliest readyAt in pfInFlight (scan gate)
	l2NextFree  int64 // instruction-side L2 port availability (bandwidth)

	// Set-sampling state (SDM fast lane; see sampled.go). sampleMask/
	// sampleMatch are the constituency filter of cfg.Sample, denormalized
	// so the hot-path test is one compare; mask 0 means full simulation
	// and routes Run through the full cycle loop.
	sampleMask      uint64
	sampleMatch     uint64
	sampledAccesses int64   // demand accesses in the sampled constituencies
	paceBase        int64   // fetch-slot offset: fc(k) = (paceBase+pace[k])/width
	lastRedirect    int64   // pace slot the last front-end redirect resolved at
	mshr            []int64 // readyAt of in-flight emulated FDP prefetches
	saK, saA        []int32 // this run's sampled-access list (Program-cached)
	saCursor        int     // next sampled access to process
	vtRetire6       int64   // retire chain anchor: completion in retire slots
	vtIdx           int     // instruction index of the chain anchor
	gateIdx         int     // next one-shot ROB-full check (maxInt = none)

	// Pace-rebase history: the slot offsets in force before each of the
	// most recent stalls, so the FTQ-window lookback can reconstruct the
	// exact consumption slot of an access that predates a rebase (stalls
	// only happen at sampled accesses, so a handful of entries always
	// covers the FTQBlocks window).
	rebIdx [rebaseRing]int32
	rebVal [rebaseRing]int64
	rebPos int

	// Counters.
	demandMisses  uint64
	lateMisses    uint64
	prefetches    uint64
	instructions  int64
	imissStall    int64
	redirectStall int64

	// Warmup accounting (Run/result).
	warmupInstrs      int64
	warmupTaken       bool
	wCycles, wInstr   int64
	wBlocks, wSampled int64
	wIStall, wRStall  int64
	wMiss, wLate, wPf uint64
}

// NewSimulator assembles a simulation of the preprocessed program over the
// given i-cache subsystem and hierarchy. The Program is immutable and
// shared: build it once per workload (NewProgram) and hand it to every
// scheme's simulator. The program's data-side latency timeline is
// precomputed here (a no-op when the workload already did it). It panics
// on a configuration Config.Validate rejects.
func NewSimulator(cfg Config, prog *Program, sub icache.Subsystem, hier *mem.Hierarchy) *Simulator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	prog.EnsureDataLatencies(hier.Config())
	filter := cfg.Sample.Filter()
	if filter.Enabled() {
		// The sampled constituencies keep their private behavior, but the
		// fetch-path resources shared across all sets serve 1/stride of
		// their full-run traffic, which would make prefetching unrealistically
		// effective (no MSHR contention, an idle L2 port) and bias sampled
		// miss/stall rates low. Scale them to the sampled fraction so per-
		// request contention matches the full run: 1/stride of the MSHRs,
		// and an L2 port stride× slower per request (equal utilization at
		// 1/stride the request rate).
		stride := int64(filter.Stride())
		cfg.MaxPrefetches = int(max(1, int64(cfg.MaxPrefetches)/stride))
		cfg.L2ServiceInterval *= stride
	}
	s := &Simulator{
		cfg:         cfg,
		sub:         sub,
		hier:        hier,
		prog:        prog,
		levelLat:    prog.levelLat,
		rob:         make([]int64, cfg.ROB),
		lastRet:     -1,
		pfInFlight:  make([]inflight, 0, cfg.MaxPrefetches),
		blockedAt:   -1,
		sampleMask:  filter.Mask,
		sampleMatch: filter.Match,
	}
	if filter.Enabled() {
		prog.ensureSampleIndex(cfg.FetchWidth, cfg.MispredictPenalty, cfg.MisfetchPenalty)
		s.saK, s.saA = prog.sampledAccessList(filter)
		s.gateIdx = maxInt
		s.mshr = make([]int64, 0, cfg.MaxPrefetches)
	}
	return s
}

// maxInt is an unreachable instruction index (the sampled lane's "no
// gate pending").
const maxInt = int(^uint(0) >> 1)

// Run executes the simulation, treating the first warmupInstrs instructions
// as warmup (excluded from the reported Result timing/counters). A
// set-sampled simulation routes through the event-driven sampled loop
// (sampled.go).
func (s *Simulator) Run(warmupInstrs int64) Result {
	s.warmupInstrs = warmupInstrs
	s.warmupTaken = warmupInstrs <= 0
	if s.sampleMask != 0 {
		s.runSampled()
	} else {
		s.run()
	}
	return s.result()
}

// run advances the simulation until the program has fully retired: fetch
// is done and the cycle is past lastRet.
func (s *Simulator) run() {
	n := s.prog.Len()
	for s.fetchIdx < n || s.lastRet >= s.cycle {
		s.step()
		if !s.warmupTaken && s.instructions >= s.warmupInstrs {
			s.wCycles, s.wInstr, s.wBlocks = s.cycle, s.instructions, s.accessIdx
			s.wMiss, s.wLate, s.wPf = s.demandMisses, s.lateMisses, s.prefetches
			s.wIStall, s.wRStall = s.imissStall, s.redirectStall
			s.wSampled = s.sampledAccesses
			s.warmupTaken = true
		}
		// Quiescent fast-forward: jump over cycles in which no prefetch
		// fill lands and neither fetch nor the run-ahead stream can move.
		// Retirement is no event, as fetch has fixed every retire cycle.
		// Once fetch is done, only fills remain before the last retire.
		// While the front end is stalled and the stream is gated (blocked
		// on a redirect or FTQ full, which only fetch progress can
		// change), the stall's end is the next event. Skipped cycles
		// before stallUntil go to the active stall counter, as fetch
		// would count them; observable state is identical to stepping.
		var target int64
		switch {
		case s.fetchIdx >= n:
			target = s.lastRet + 1
		case s.cycle < s.stallUntil && (!s.cfg.UseFDP || s.runIdx >= n ||
			(s.blockedAt >= 0 && s.fetchIdx <= s.blockedAt) ||
			s.runAccesses-s.accessIdx >= int64(s.cfg.FTQBlocks)):
			target = s.stallUntil
		default:
			continue
		}
		if len(s.pfInFlight) > 0 && s.pfNextReady < target {
			target = s.pfNextReady
		}
		if stall := min(target, s.stallUntil) - s.cycle; stall > 0 {
			if s.stallIsMiss {
				s.imissStall += stall
			} else {
				s.redirectStall += stall
			}
		}
		s.cycle = max(s.cycle, target)
	}
}

// result reports the post-warmup counters of a completed run.
func (s *Simulator) result() Result {
	r := Result{
		Cycles:              s.cycle - s.wCycles,
		Instructions:        s.instructions - s.wInstr,
		BlockAccesses:       s.accessIdx - s.wBlocks,
		DemandMisses:        s.demandMisses - s.wMiss,
		LateMisses:          s.lateMisses - s.wLate,
		Prefetches:          s.prefetches - s.wPf,
		IMissStallCycles:    s.imissStall - s.wIStall,
		RedirectStallCycles: s.redirectStall - s.wRStall,
		ICache:              s.sub.Stats(),
	}
	if s.sampleMask != 0 {
		r.SampleStride = int(s.sampleMask) + 1
		r.SampledAccesses = s.sampledAccesses - s.wSampled
	}
	return r
}

// step advances the simulation by one core cycle. It is the unit the
// steady-state allocation guard measures: after warmup, a step must not
// allocate (testing.AllocsPerRun == 0), which keeps the per-access cost of
// wide sweeps bounded by arithmetic and cache misses rather than GC. There
// is no retire stage: fetch fixes each instruction's retire cycle when it
// dispatches.
func (s *Simulator) step() {
	s.completePrefetches()
	if s.cfg.UseFDP && s.fetchIdx < s.prog.Len() {
		s.runAhead()
	}
	s.fetch()
	s.cycle++
}

// done reports whether the simulation has retired everything.
func (s *Simulator) done() bool { return s.fetchIdx >= s.prog.Len() && s.lastRet < s.cycle }

// completePrefetches installs prefetches whose fill latency elapsed. The
// in-flight list is scanned only when the earliest completion is due — the
// loop runs every cycle, and most cycles nothing completes.
func (s *Simulator) completePrefetches() {
	if len(s.pfInFlight) == 0 || s.cycle < s.pfNextReady {
		return
	}
	kept := s.pfInFlight[:0]
	nextReady := int64(1)<<62 - 1
	for _, pf := range s.pfInFlight {
		if pf.readyAt <= s.cycle {
			s.sub.PrefetchFill(pf.block, s.accessIdx, s.cycle)
		} else {
			if pf.readyAt < nextReady {
				nextReady = pf.readyAt
			}
			kept = append(kept, pf)
		}
	}
	s.pfInFlight = kept
	s.pfNextReady = nextReady
}

func (s *Simulator) prefetchPending(block uint64) (int64, bool) {
	for _, pf := range s.pfInFlight {
		if pf.block == block {
			return pf.readyAt, true
		}
	}
	return 0, false
}

// issuePrefetch starts a prefetch for block unless redundant.
func (s *Simulator) issuePrefetch(block uint64) bool {
	if len(s.pfInFlight) >= s.cfg.MaxPrefetches {
		return false
	}
	if s.sub.Contains(block) {
		return true // redundant; costs nothing, does not consume an MSHR
	}
	if _, pending := s.prefetchPending(block); pending {
		return true
	}
	readyAt := s.instrFillReady(block)
	if len(s.pfInFlight) == 0 || readyAt < s.pfNextReady {
		s.pfNextReady = readyAt
	}
	s.pfInFlight = append(s.pfInFlight, inflight{block: block, readyAt: readyAt})
	s.prefetches++
	return true
}

// instrFillReady reserves the instruction-side L2 port and returns when the
// fill for block completes. The port models finite L2 bandwidth: a scheme
// that turns the FDP stream into a firehose (by discarding blocks and
// re-prefetching them) queues behind its own traffic, as it would in
// hardware.
func (s *Simulator) instrFillReady(block uint64) int64 {
	start := s.cycle
	if s.l2NextFree > start {
		start = s.l2NextFree
	}
	s.l2NextFree = start + s.cfg.L2ServiceInterval
	return start + s.hier.InstrMiss(block)
}

// runAhead advances the FDP fetch-target-queue pointer and issues
// prefetches for upcoming fetch blocks. The run-ahead stream follows the
// branch predictor, so it stops at a branch the predictor gets wrong and
// resumes once fetch passes the resolved branch.
func (s *Simulator) runAhead() {
	if s.blockedAt >= 0 {
		if s.fetchIdx <= s.blockedAt {
			return
		}
		s.blockedAt = -1
	}
	if s.runIdx < s.fetchIdx {
		s.runIdx = s.fetchIdx
		s.runHaveBlk = s.haveBlock
		s.runLastBlk = s.lastBlock
		s.runAccesses = s.accessIdx
		// Fetch stalled retrying the instruction at fetchIdx means its
		// demand access is already counted in accessIdx: suppress that
		// event's issue (keeping the access counter aligned with the
		// collapsed block sequence) but still process its redirect bits —
		// a mispredicted branch at the retried block start must block the
		// stream exactly as the per-instruction walk did.
		s.runSkipIssue = s.retrying
	}
	issued := 0
	n := s.prog.Len()
	for s.runIdx < n && issued < s.cfg.PrefetchPerCycle {
		d := s.prog.Desc[s.runIdx]
		if d&descRunEvent == 0 {
			// Same block, no redirect: nothing for the run-ahead stream to
			// do until the next event; jump there via the event bitmap.
			s.runIdx = s.prog.nextRunEvent(s.runIdx, n)
			continue
		}
		if s.runAccesses-s.accessIdx >= int64(s.cfg.FTQBlocks) {
			return
		}
		if d&descNewBlock != 0 {
			if s.runSkipIssue {
				// This event's access was counted on a previous attempt
				// that found the MSHRs full; the stream does not re-issue
				// it (the block comparison against the already-updated
				// run-ahead state used to absorb it).
				s.runSkipIssue = false
			} else {
				// The run-ahead access counter indexes the collapsed
				// sequence, so the upcoming block is one array read.
				b := s.prog.Blocks[s.runAccesses]
				if !s.runHaveBlk || b != s.runLastBlk {
					s.runHaveBlk = true
					s.runLastBlk = b
					s.runAccesses++
					if !s.issuePrefetch(b) {
						s.runSkipIssue = true
						return // MSHRs full
					}
					issued++
				}
			}
		}
		if d&(descMispredict|descMisfetch) != 0 {
			// The run-ahead stream cannot proceed past a branch the front
			// end will get wrong: a mispredicted direction sends it down
			// the wrong path, and a BTB miss leaves it with no target to
			// follow. Resume once fetch resolves the branch.
			s.blockedAt = s.runIdx
			s.runIdx++
			return
		}
		s.runIdx++
	}
}

// fetch supplies up to FetchWidth instructions into the ROB and fixes each
// one's retire cycle. In-order retirement at RetireWidth per cycle is a
// pure function of the completion times: an instruction dispatched in
// cycle d completing at c retires at the first cycle that is at least c,
// after d, no earlier than its predecessor, and not already holding
// RetireWidth retirements — max(c, d+1, rt[i-1], rt[i-RetireWidth]+1).
// The last term is tracked as (lastRet, lastRetN), so no retire stage
// has to scan the ROB each cycle. The loop works on locals and writes
// them back once.
func (s *Simulator) fetch() {
	if s.cycle < s.stallUntil {
		if s.stallIsMiss {
			s.imissStall++
		} else {
			s.redirectStall++
		}
		return
	}
	cycle := s.cycle
	rob, head, robLen := s.rob, s.robHead, s.robLen
	// Entries whose retire cycle has passed free their slots. The ring is
	// trimmed only when this fetch group could otherwise find it full.
	if robLen+s.cfg.FetchWidth > len(rob) {
		for robLen > 0 && rob[head] <= cycle {
			// Conditional wrap instead of modulo: ROB size is not a power
			// of two, and a division per instruction is measurable here.
			if head++; head == len(rob) {
				head = 0
			}
			robLen--
		}
	}
	desc, levelLat := s.prog.Desc, &s.levelLat
	idx, lastRet, lastRetN := s.fetchIdx, s.lastRet, s.lastRetN
	end := min(len(desc), idx+min(s.cfg.FetchWidth, len(rob)-robLen))
	ready, width := cycle+s.cfg.PipelineDepth, s.cfg.RetireWidth
	for idx < end {
		d := desc[idx]
		if d&descNewBlock != 0 {
			// The descriptor flags the first instruction of a block access;
			// the accessIdx counter indexes the collapsed sequence, so the
			// demanded block is one array read. A stalled fetch retries
			// this instruction after its demand access already ran; the
			// retrying flag keeps the retry from double-counting.
			if s.retrying {
				s.retrying = false
			} else if !s.demandAccess(s.prog.Blocks[s.accessIdx]) {
				s.retrying = true
				break // miss: front end stalls until the fill arrives
			}
		}

		// Class-based completion time. Loads take the latency of the data
		// level their descriptor carries (the data hierarchy was replayed
		// once per workload), masked in without a branch; stores retire
		// through the store buffer and do not delay completion, so their
		// hierarchy effect lives entirely in the precompute.
		rt := max(cycle+1, ready+levelLat[d>>descLevelShift]&-int64(d&descLoad>>1))
		// The in-order and width terms, kept free of data-dependent
		// branches: the first retire slot left is in cycle lastRet, or in
		// lastRet+1 once lastRet holds RetireWidth retirements.
		next := lastRet
		if lastRetN >= width {
			next++
		}
		rt = max(rt, next)
		n := 1
		if rt == lastRet {
			n = lastRetN + 1
		}
		lastRet, lastRetN = rt, n
		tail := head + robLen
		if tail >= len(rob) {
			tail -= len(rob)
		}
		rob[tail] = lastRet
		robLen++
		idx++

		// A taken branch ends the fetch group (new fetch target next
		// cycle); a front-end redirect also stalls fetch for its penalty.
		if d&(descGroupEnd|descMispredict|descMisfetch) != 0 {
			if d&descMispredict != 0 {
				s.stallUntil, s.stallIsMiss = cycle+s.cfg.MispredictPenalty, false
			} else if d&descMisfetch != 0 {
				s.stallUntil, s.stallIsMiss = cycle+s.cfg.MisfetchPenalty, false
			}
			break
		}
	}
	s.instructions += int64(idx - s.fetchIdx)
	s.fetchIdx, s.lastRet, s.lastRetN = idx, lastRet, lastRetN
	s.robHead, s.robLen = head, robLen
}

// demandAccess performs the block-granular demand fetch; returns true when
// the block supplied instructions this cycle (hit), false when the front
// end must stall for a fill.
func (s *Simulator) demandAccess(b uint64) bool {
	s.haveBlock = true
	s.lastBlock = b
	s.accessIdx++
	idx := s.accessIdx - 1

	if readyAt, pending := s.prefetchPending(b); pending {
		// Late prefetch: the block is in flight. Install it now, charge
		// the residual latency, and count a demand miss.
		s.removeInFlight(b)
		s.sub.PrefetchFill(b, idx, s.cycle)
		s.sub.Fetch(b, idx, s.cycle)
		s.demandMisses++
		s.lateMisses++
		s.extraPrefetch(b, true)
		if readyAt > s.cycle {
			s.stallUntil = readyAt
			s.stallIsMiss = true
			return false
		}
		return true
	}

	hit := s.sub.Fetch(b, idx, s.cycle)
	if hit {
		s.extraPrefetch(b, false)
		return true
	}
	s.demandMisses++
	s.stallUntil = s.instrFillReady(b)
	s.stallIsMiss = true
	s.extraPrefetch(b, true)
	return false
}

func (s *Simulator) removeInFlight(block uint64) {
	for i := range s.pfInFlight {
		if s.pfInFlight[i].block == block {
			s.pfInFlight[i] = s.pfInFlight[len(s.pfInFlight)-1]
			s.pfInFlight = s.pfInFlight[:len(s.pfInFlight)-1]
			return
		}
	}
}

// extraPrefetch drives the optional table prefetcher (entangling).
func (s *Simulator) extraPrefetch(block uint64, miss bool) {
	if s.cfg.Extra == nil {
		return
	}
	s.pfScratch = s.cfg.Extra.OnAccess(block, s.cycle, miss, s.pfScratch[:0])
	for _, c := range s.pfScratch {
		s.issuePrefetch(c)
	}
}
